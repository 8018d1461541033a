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

use crate::sad::{candidate_fits, get_sad_approx, interp_mode_of, ApproxSad, InterpKind};
use crate::types::{Mv, Plane};
use crate::MB;

/// One recorded `GetSad` invocation: 12 bytes, since a workload holds one
/// per call the encoder made. The coordinates are `u16` because a traced
/// search rejects planes over 65,535 px per side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SadCall {
    /// Candidate top-left x (integer samples, in the reference frame).
    pub cx: u16,
    /// Candidate top-left y.
    pub cy: u16,
    /// Interpolation kind.
    pub kind: InterpKind,
    /// The SAD this call returned.
    pub sad: u32,
}

const _: () = assert!(std::mem::size_of::<SadCall>() == 12);

/// Rejects a plane a [`SadCall`] cannot address.
///
/// # Panics
///
/// Panics when either side of `p` is over 65,535 px.
pub(crate) fn assert_traceable(p: &Plane) {
    let max = usize::from(u16::MAX);
    assert!(
        p.width() <= max && p.height() <= max,
        "a {}x{} plane is too large to trace (at most {max} px per side)",
        p.width(),
        p.height()
    );
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// The motion vectors one macroblock search has evaluated, exactly: an
/// open-addressing table of packed `(x, y)` keys whose slots count only
/// when stamped with the current search's epoch. Starting the next
/// macroblock is one increment instead of a clear or an allocation, so one
/// set serves a whole encode.
///
/// ```
/// use mpeg4_enc::me::VisitedSet;
/// use mpeg4_enc::types::Mv;
///
/// let mut set = VisitedSet::default();
/// assert!(set.insert(Mv::new(3, -2)));
/// assert!(!set.insert(Mv::new(3, -2))); // already evaluated
/// set.clear(); // the next macroblock
/// assert!(set.insert(Mv::new(3, -2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VisitedSet {
    /// `(epoch stamp, packed key)` per slot; a power-of-two count.
    slots: Vec<(u32, u32)>,
    /// The live stamp. A never-used slot has stamp 0, so `epoch` is 0
    /// only until the first table is allocated.
    epoch: u32,
    /// Keys stamped with `epoch`.
    len: usize,
}

impl VisitedSet {
    /// Slots of a fresh table: a range-8 full search plus refinement (297
    /// keys) stays under a 1/2 load factor, so the golden encode never
    /// grows it.
    const MIN_SLOTS: usize = 1024;

    /// Forgets every key.
    pub fn clear(&mut self) {
        self.len = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.fill((0, 0));
            self.epoch = 1;
        }
    }

    /// Inserts `mv`; returns whether it was absent.
    pub fn insert(&mut self, mv: Mv) -> bool {
        let key = (u32::from(mv.x as u16) << 16) | u32::from(mv.y as u16);
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let (stamp, k) = self.slots[i];
            if stamp != self.epoch {
                self.slots[i] = (self.epoch, key);
                self.len += 1;
                return true;
            }
            if k == key {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// The first slot probed for `key`: Fibonacci hashing, the top bits of
    /// a multiplicative hash.
    fn home(&self, key: u32) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(0x9e37_79b9) >> (32 - bits)) as usize
    }

    /// Doubles the table (or allocates the first one), keeping the live keys.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); size]);
        self.epoch = self.epoch.max(1);
        let mask = size - 1;
        for (stamp, key) in old {
            if stamp == self.epoch {
                let mut i = self.home(key);
                while self.slots[i].0 == self.epoch {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (stamp, key);
            }
        }
    }
}

/// What a motion search reuses from one macroblock to the next: the
/// visited set and the trace buffer, plus whether a trace is recorded at
/// all (the golden reference encode records none).
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    visited: VisitedSet,
    /// The last search's `GetSad` calls, in order (empty unless `record`).
    pub(crate) calls: Vec<SadCall>,
    record: bool,
}

impl SearchScratch {
    /// Scratch for searches that record their trace iff `record`.
    pub(crate) fn new(record: bool) -> Self {
        SearchScratch {
            record,
            ..SearchScratch::default()
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
    scratch: &'a mut SearchScratch,
    best: (Mv, u32),
}

impl<'a> SearchCtx<'a> {
    fn new(
        scratch: &'a mut SearchScratch,
        cur: &'a Plane,
        prev: &'a Plane,
        mbx: usize,
        mby: usize,
        approx: ApproxSad,
    ) -> Self {
        scratch.visited.clear();
        scratch.calls.clear();
        SearchCtx {
            cur,
            prev,
            rx: mbx * MB,
            ry: mby * MB,
            approx,
            scratch,
            best: (Mv::default(), u32::MAX),
        }
    }

    /// Evaluates the candidate at motion vector `mv` (half-sample units);
    /// returns whether it was evaluated (`false` when out of frame or
    /// already visited).
    ///
    /// Only a strictly smaller SAD replaces the best. So when no trace is
    /// recorded, an exact search stops summing a candidate as soon as its
    /// running SAD reaches the best so far (the [`ApproxSad::EarlyExit`]
    /// row check at threshold `best − 1`). Such a candidate could not have
    /// won, and one that wins is summed in full, so the chosen vector and
    /// its SAD are unchanged. A traced search sums every candidate in
    /// full: the simulator replays and checks each recorded SAD.
    fn try_mv(&mut self, mv: Mv) -> bool {
        if !self.scratch.visited.insert(mv) {
            return false;
        }
        let kind = interp_mode_of(mv);
        let (ix, iy) = mv.int_part();
        let cx = self.rx as isize + isize::from(ix);
        let cy = self.ry as isize + isize::from(iy);
        if !candidate_fits(self.prev, cx, cy, kind) {
            return false;
        }
        let (cx, cy) = (cx as usize, cy as usize);
        let approx = match (self.approx, self.best.1) {
            (ApproxSad::Exact, best) if !self.scratch.record && best > 0 => ApproxSad::EarlyExit {
                threshold: best - 1,
            },
            (approx, _) => approx,
        };
        let sad = get_sad_approx(self.cur, self.rx, self.ry, self.prev, cx, cy, kind, approx);
        if self.scratch.record {
            // The candidate lies inside `prev`, which the search's entry
            // point held to 65,535 px per side: the casts are exact.
            let (cx, cy) = (cx as u16, cy as u16);
            self.scratch.calls.push(SadCall { cx, cy, kind, sad });
        }
        if sad < self.best.1 {
            self.best = (mv, sad);
        }
        true
    }
}

impl MotionSearch {
    /// Searches macroblock `(mbx, mby)` of `cur` in the reconstructed
    /// previous frame `prev`, starting from the prediction `pred`
    /// (half-sample units; typically the median of neighbouring MVs).
    ///
    /// # Panics
    ///
    /// Panics if the macroblock coordinates leave the plane, or when
    /// `prev` is over 65,535 px per side.
    #[must_use]
    pub fn search_mb(
        &self,
        cur: &Plane,
        prev: &Plane,
        mbx: usize,
        mby: usize,
        pred: Mv,
    ) -> MbMotion {
        assert_traceable(prev);
        let mut scratch = SearchScratch::new(true);
        let (mv, best_sad) = self.search_mb_in(&mut scratch, cur, prev, mbx, mby, pred);
        MbMotion {
            mv,
            best_sad,
            calls: scratch.calls,
        }
    }

    /// [`MotionSearch::search_mb`] on reused scratch: returns the best
    /// vector and its SAD and leaves the trace in `scratch.calls` (empty
    /// when the scratch does not record).
    pub(crate) fn search_mb_in(
        &self,
        scratch: &mut SearchScratch,
        cur: &Plane,
        prev: &Plane,
        mbx: usize,
        mby: usize,
        pred: Mv,
    ) -> (Mv, u32) {
        assert!(mbx < cur.mbs_x() && mby < cur.mbs_y(), "MB out of frame");
        let mut ctx = SearchCtx::new(scratch, cur, prev, mbx, mby, self.approx);
        // Every strategy evaluates the zero vector and the prediction.
        ctx.try_mv(Mv::default());
        let (px, py) = pred.int_part();
        let start = Mv::from_int(px, py);
        ctx.try_mv(start);
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
        ctx.best
    }

    fn full(&self, ctx: &mut SearchCtx<'_>, range: i16) {
        for dy in -range..=range {
            for dx in -range..=range {
                ctx.try_mv(Mv::from_int(dx, dy));
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
                    if ctx.try_mv(mv) && ctx.best.0 == mv {
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
        ctx.try_mv(center);
        for _round in 0..32 {
            for (dx, dy) in LDSP {
                ctx.try_mv(Mv::new(center.x + dx * 2, center.y + dy * 2));
            }
            let best = ctx.best.0;
            // Only integer positions participate; best is integer here.
            if best == center {
                break;
            }
            center = best;
        }
        for (dx, dy) in SDSP {
            ctx.try_mv(Mv::new(center.x + dx * 2, center.y + dy * 2));
        }
    }

    fn spiral(&self, ctx: &mut SearchCtx<'_>, start: Mv, range: i16, threshold: u32) {
        'outer: for radius in 0..=range {
            for dy in -radius..=radius {
                for dx in -radius..=radius {
                    if dx.abs() != radius && dy.abs() != radius {
                        continue; // only the ring at this radius
                    }
                    ctx.try_mv(Mv::new(start.x + dx * 2, start.y + dy * 2));
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
                ctx.try_mv(Mv::new(center.x + dx, center.y + dy));
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
                crate::sad::get_sad_approx(
                    &cur,
                    16,
                    16,
                    &prev,
                    usize::from(c.cx),
                    usize::from(c.cy),
                    c.kind,
                    approx
                ),
                "{c:?}"
            );
        }
    }

    #[test]
    fn visited_set_is_exact_across_growth_and_epoch_wrap() {
        let mut set = VisitedSet::default();
        let mut reference = std::collections::HashSet::new();
        // Enough keys to grow the table twice, including negative and
        // extreme components.
        let mvs: Vec<Mv> = (-40i16..40)
            .flat_map(|y| (-20i16..20).map(move |x| Mv::new(x * 3, y * 5)))
            .chain([Mv::new(i16::MIN, i16::MAX), Mv::new(i16::MAX, i16::MIN)])
            .collect();
        for pass in 0..2 {
            for &mv in mvs.iter().chain(&mvs) {
                assert_eq!(set.insert(mv), reference.insert(mv), "pass {pass}: {mv:?}");
            }
            set.clear();
            reference.clear();
        }
        // The stamp wraps to 0 after u32::MAX searches: every slot is reset,
        // so a key stamped 1 long ago does not come back to life.
        let mut set = VisitedSet::default();
        assert!(set.insert(Mv::new(2, 2)));
        assert_eq!(set.epoch, 1);
        set.epoch = u32::MAX;
        set.len = 0;
        assert!(set.insert(Mv::new(4, 4)));
        set.clear();
        assert_eq!(set.epoch, 1);
        assert!(set.insert(Mv::new(2, 2)), "a stale key survived the wrap");
        assert!(set.insert(Mv::new(4, 4)), "a key survived the wrap");
        assert!(!set.insert(Mv::new(2, 2)));
    }

    #[test]
    fn trace_has_no_duplicate_candidates() {
        let (cur, prev) = shifted_pair(2, 2);
        let ms = MotionSearch::default();
        let m = ms.search_mb(&cur, &prev, 1, 1, Mv::default());
        let mut seen = std::collections::HashSet::new();
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
                crate::sad::get_sad(
                    &cur,
                    16,
                    16,
                    &prev,
                    usize::from(c.cx),
                    usize::from(c.cy),
                    c.kind
                ),
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
            assert!(usize::from(c.cx) + c.kind.cols() <= prev.width());
            assert!(usize::from(c.cy) + c.kind.rows() <= prev.height());
        }
    }
}
