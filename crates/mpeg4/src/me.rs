//! Motion-estimation search algorithms.
//!
//! Each algorithm returns, besides the chosen motion vector, the **exact
//! trace of `GetSad` calls** it made (candidate position + interpolation
//! kind + SAD). The trace is what drives the VLIW simulator: the
//! experiment harness replays every call against the simulated `GetSad`
//! kernels, so the simulated instruction mix matches the host-side search
//! decision for decision.
//!
//! The default algorithm is the diamond search with half-sample refinement,
//! which yields a diagonal-interpolation share of `GetSad` calls close to
//! the 18 % the paper reports for its sequence. A full search is provided
//! as the exhaustive golden baseline (and shows why it would dilute the
//! diagonal share to a few percent), along with three-step and spiral
//! searches for the search ablation (`specs/ablation_search.json`).

use std::collections::HashSet;

use crate::sad::{candidate_fits, get_sad_approx, interp_mode_of, ApproxSad, InterpKind};
use crate::types::{Mv, Plane};
use crate::MB;

/// One recorded `GetSad` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SadCall {
    /// Candidate top-left x (integer samples, in the reference frame).
    pub cx: usize,
    /// Candidate top-left y.
    pub cy: usize,
    /// Interpolation kind.
    pub kind: InterpKind,
    /// The SAD this call returned.
    pub sad: u32,
}

/// Result of searching one macroblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MbMotion {
    /// Best motion vector, half-sample units.
    pub mv: Mv,
    /// Its SAD.
    pub best_sad: u32,
    /// Every `GetSad` call made, in order.
    pub calls: Vec<SadCall>,
}

/// The search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchAlgorithm {
    /// Exhaustive integer search of `(2·range+1)²` candidates.
    Full {
        /// Search range in integer samples.
        range: i16,
    },
    /// Classic three-step search (steps 4, 2, 1).
    ThreeStep,
    /// Diamond search (LDSP/SDSP), the default.
    Diamond,
    /// Spiral scan outward from the prediction with early termination.
    Spiral {
        /// Search range in integer samples.
        range: i16,
        /// Stop as soon as a SAD at or below this is found.
        threshold: u32,
    },
}

/// A configured motion search.
///
/// ```
/// use mpeg4_enc::me::MotionSearch;
/// use mpeg4_enc::types::{Mv, Plane};
///
/// let prev = Plane::new(64, 48);
/// let cur = prev.clone();
/// let m = MotionSearch::default().search_mb(&cur, &prev, 1, 1, Mv::default());
/// assert_eq!(m.best_sad, 0); // identical frames: the zero vector wins
/// assert!(!m.calls.is_empty()); // and the GetSad trace is recorded
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MotionSearch {
    /// Integer-sample search strategy.
    pub algorithm: SearchAlgorithm,
    /// Whether to refine to half-sample precision (the case study's
    /// sub-pixel motion vectors).
    pub half_sample: bool,
    /// The SAD approximation every candidate is evaluated with. The
    /// recorded trace carries the *approximate* SADs, so the simulator
    /// replays exactly what the search decided on.
    pub approx: ApproxSad,
}

impl Default for MotionSearch {
    fn default() -> Self {
        MotionSearch {
            algorithm: SearchAlgorithm::Diamond,
            half_sample: true,
            approx: ApproxSad::Exact,
        }
    }
}

/// Search bookkeeping: dedupes candidates and records the trace.
struct SearchCtx<'a> {
    cur: &'a Plane,
    prev: &'a Plane,
    rx: usize,
    ry: usize,
    approx: ApproxSad,
    visited: HashSet<(i32, i32)>,
    calls: Vec<SadCall>,
    best: (Mv, u32),
}

impl<'a> SearchCtx<'a> {
    fn new(cur: &'a Plane, prev: &'a Plane, mbx: usize, mby: usize, approx: ApproxSad) -> Self {
        SearchCtx {
            cur,
            prev,
            rx: mbx * MB,
            ry: mby * MB,
            approx,
            visited: HashSet::new(),
            calls: Vec::new(),
            best: (Mv::default(), u32::MAX),
        }
    }

    /// Evaluates the candidate at motion vector `mv` (half-sample units);
    /// returns its SAD, or `None` when out of frame or already visited.
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
        self.calls.push(SadCall { cx, cy, kind, sad });
        if sad < self.best.1 {
            self.best = (mv, sad);
        }
        Some(sad)
    }
}

impl MotionSearch {
    /// Searches macroblock `(mbx, mby)` of `cur` in the reconstructed
    /// previous frame `prev`, starting from the prediction `pred`
    /// (half-sample units; typically the median of neighbouring MVs).
    ///
    /// # Panics
    ///
    /// Panics if the macroblock coordinates leave the plane.
    #[must_use]
    pub fn search_mb(
        &self,
        cur: &Plane,
        prev: &Plane,
        mbx: usize,
        mby: usize,
        pred: Mv,
    ) -> MbMotion {
        assert!(mbx < cur.mbs_x() && mby < cur.mbs_y(), "MB out of frame");
        let mut ctx = SearchCtx::new(cur, prev, mbx, mby, self.approx);
        // Every strategy evaluates the zero vector and the prediction.
        let _ = ctx.try_mv(Mv::default());
        let (px, py) = pred.int_part();
        let start = Mv::from_int(px, py);
        let _ = ctx.try_mv(start);
        let center = if ctx.best.0 == start {
            start
        } else {
            Mv::default()
        };
        match self.algorithm {
            SearchAlgorithm::Full { range } => self.full(&mut ctx, range),
            SearchAlgorithm::ThreeStep => self.three_step(&mut ctx, center),
            SearchAlgorithm::Diamond => self.diamond(&mut ctx, center),
            SearchAlgorithm::Spiral { range, threshold } => {
                self.spiral(&mut ctx, center, range, threshold);
            }
        }
        if self.half_sample {
            self.refine_half(&mut ctx);
        }
        let (mv, best_sad) = ctx.best;
        MbMotion {
            mv,
            best_sad,
            calls: ctx.calls,
        }
    }

    fn full(&self, ctx: &mut SearchCtx<'_>, range: i16) {
        for dy in -range..=range {
            for dx in -range..=range {
                let _ = ctx.try_mv(Mv::from_int(dx, dy));
            }
        }
    }

    fn three_step(&self, ctx: &mut SearchCtx<'_>, start: Mv) {
        let mut center = start;
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

    fn diamond(&self, ctx: &mut SearchCtx<'_>, start: Mv) {
        // Large diamond search pattern until the center is best, then one
        // small diamond pass.
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
        let mut center = start;
        let _ = ctx.try_mv(center);
        for _round in 0..32 {
            for (dx, dy) in LDSP {
                let _ = ctx.try_mv(Mv::new(center.x + dx * 2, center.y + dy * 2));
            }
            let best = ctx.best.0;
            // Only integer positions participate; best is integer here.
            if best == center {
                break;
            }
            center = best;
        }
        for (dx, dy) in SDSP {
            let _ = ctx.try_mv(Mv::new(center.x + dx * 2, center.y + dy * 2));
        }
    }

    fn spiral(&self, ctx: &mut SearchCtx<'_>, start: Mv, range: i16, threshold: u32) {
        'outer: for radius in 0..=range {
            for dy in -radius..=radius {
                for dx in -radius..=radius {
                    if dx.abs() != radius && dy.abs() != radius {
                        continue; // only the ring at this radius
                    }
                    let _ = ctx.try_mv(Mv::new(start.x + dx * 2, start.y + dy * 2));
                    if ctx.best.1 <= threshold {
                        break 'outer;
                    }
                }
            }
        }
    }

    fn refine_half(&self, ctx: &mut SearchCtx<'_>) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A textured plane shifted by an exact integer offset between frames.
    fn shifted_pair(dx: isize, dy: isize) -> (Plane, Plane) {
        let w = 96;
        let h = 80;
        let mut prev = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = ((x * 7) ^ (y * 13)) % 251;
                prev.set(x, y, v as u8);
            }
        }
        let mut cur = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                cur.set(x, y, prev.at_clamped(x as isize + dx, y as isize + dy));
            }
        }
        (cur, prev)
    }

    #[test]
    fn full_search_finds_exact_shift() {
        let (cur, prev) = shifted_pair(3, -2);
        let ms = MotionSearch {
            algorithm: SearchAlgorithm::Full { range: 8 },
            half_sample: true,
            approx: ApproxSad::Exact,
        };
        let m = ms.search_mb(&cur, &prev, 2, 2, Mv::default());
        assert_eq!(m.mv, Mv::from_int(3, -2));
        assert_eq!(m.best_sad, 0);
    }

    #[test]
    fn diamond_finds_exact_shift() {
        let (cur, prev) = shifted_pair(4, 1);
        let ms = MotionSearch::default();
        let m = ms.search_mb(&cur, &prev, 2, 2, Mv::default());
        assert_eq!(m.mv, Mv::from_int(4, 1));
        assert_eq!(m.best_sad, 0);
    }

    #[test]
    fn three_step_finds_exact_shift() {
        let (cur, prev) = shifted_pair(-3, 2);
        let ms = MotionSearch {
            algorithm: SearchAlgorithm::ThreeStep,
            half_sample: false,
            approx: ApproxSad::Exact,
        };
        let m = ms.search_mb(&cur, &prev, 2, 2, Mv::default());
        assert_eq!(m.mv, Mv::from_int(-3, 2));
    }

    #[test]
    fn spiral_terminates_early_on_match() {
        let (cur, prev) = shifted_pair(0, 0);
        let ms = MotionSearch {
            algorithm: SearchAlgorithm::Spiral {
                range: 8,
                threshold: 0,
            },
            half_sample: false,
            approx: ApproxSad::Exact,
        };
        let m = ms.search_mb(&cur, &prev, 1, 1, Mv::default());
        assert_eq!(m.best_sad, 0);
        // Early exit: far fewer calls than the full 17² candidates.
        assert!(m.calls.len() < 10, "{} calls", m.calls.len());
    }

    #[test]
    fn diamond_visits_fewer_candidates_than_full_search() {
        // Flat-motion synthetic sequence: a uniform (2, 1) shift.
        let (cur, prev) = shifted_pair(2, 1);
        let full = MotionSearch {
            algorithm: SearchAlgorithm::Full { range: 8 },
            half_sample: true,
            approx: ApproxSad::Exact,
        };
        let diamond = MotionSearch::default();
        let f = full.search_mb(&cur, &prev, 2, 2, Mv::default());
        let d = diamond.search_mb(&cur, &prev, 2, 2, Mv::default());
        assert_eq!(d.mv, f.mv, "diamond must find the same motion vector");
        assert_eq!(d.best_sad, f.best_sad);
        assert!(
            d.calls.len() < f.calls.len(),
            "diamond visited {} candidates, full search {}",
            d.calls.len(),
            f.calls.len()
        );
    }

    #[test]
    fn spiral_visits_fewer_candidates_than_full_search() {
        let (cur, prev) = shifted_pair(2, 1);
        let full = MotionSearch {
            algorithm: SearchAlgorithm::Full { range: 8 },
            half_sample: true,
            approx: ApproxSad::Exact,
        };
        let spiral = MotionSearch {
            algorithm: SearchAlgorithm::Spiral {
                range: 8,
                threshold: 0,
            },
            half_sample: true,
            approx: ApproxSad::Exact,
        };
        let f = full.search_mb(&cur, &prev, 2, 2, Mv::default());
        let s = spiral.search_mb(&cur, &prev, 2, 2, Mv::default());
        assert_eq!(s.mv, f.mv, "spiral must find the same motion vector");
        assert_eq!(s.best_sad, f.best_sad);
        assert!(
            s.calls.len() < f.calls.len(),
            "spiral visited {} candidates, full search {}",
            s.calls.len(),
            f.calls.len()
        );
    }

    #[test]
    fn approximate_trace_carries_approximate_sads() {
        let (cur, prev) = shifted_pair(1, 1);
        let approx = ApproxSad::SubsampledRows { step: 2 };
        let ms = MotionSearch {
            approx,
            ..MotionSearch::default()
        };
        let m = ms.search_mb(&cur, &prev, 1, 1, Mv::default());
        for c in &m.calls {
            assert_eq!(
                c.sad,
                crate::sad::get_sad_approx(&cur, 16, 16, &prev, c.cx, c.cy, c.kind, approx),
                "{c:?}"
            );
        }
    }

    #[test]
    fn trace_has_no_duplicate_candidates() {
        let (cur, prev) = shifted_pair(2, 2);
        let ms = MotionSearch::default();
        let m = ms.search_mb(&cur, &prev, 1, 1, Mv::default());
        let mut seen = HashSet::new();
        for c in &m.calls {
            assert!(seen.insert((c.cx, c.cy, c.kind)), "duplicate {c:?}");
        }
    }

    #[test]
    fn trace_sads_match_golden() {
        let (cur, prev) = shifted_pair(1, 1);
        let ms = MotionSearch::default();
        let m = ms.search_mb(&cur, &prev, 1, 1, Mv::default());
        for c in &m.calls {
            assert_eq!(
                c.sad,
                crate::sad::get_sad(&cur, 16, 16, &prev, c.cx, c.cy, c.kind),
                "{c:?}"
            );
        }
    }

    #[test]
    fn half_sample_refinement_evaluates_diagonals() {
        let (cur, prev) = shifted_pair(2, 0);
        let ms = MotionSearch::default();
        let m = ms.search_mb(&cur, &prev, 2, 2, Mv::default());
        let diag = m
            .calls
            .iter()
            .filter(|c| c.kind == InterpKind::Diag)
            .count();
        assert!(diag >= 2, "diagonal candidates evaluated: {diag}");
    }

    #[test]
    fn prediction_seeds_the_search() {
        let (cur, prev) = shifted_pair(6, 3);
        let ms = MotionSearch::default();
        let seeded = ms.search_mb(&cur, &prev, 2, 2, Mv::from_int(6, 3));
        assert_eq!(seeded.mv, Mv::from_int(6, 3));
        // With a perfect prediction the search converges in few calls.
        assert!(seeded.calls.len() <= 30, "{} calls", seeded.calls.len());
    }

    #[test]
    fn candidates_never_leave_the_frame() {
        let (cur, prev) = shifted_pair(0, 0);
        let ms = MotionSearch {
            algorithm: SearchAlgorithm::Full { range: 20 },
            half_sample: true,
            approx: ApproxSad::Exact,
        };
        // Corner macroblock: large range would leave the plane.
        let m = ms.search_mb(&cur, &prev, 0, 0, Mv::default());
        for c in &m.calls {
            assert!(c.cx + c.kind.cols() <= prev.width());
            assert!(c.cy + c.kind.rows() <= prev.height());
        }
    }
}
