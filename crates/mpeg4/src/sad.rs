//! `GetSad`: sum of absolute differences with exact half-sample
//! interpolation — the golden model every VLIW kernel is verified against.
//!
//! The definition is per pixel: [`pred_pixel`] interpolates one predictor
//! pixel and the SAD sums its masked absolute difference to the reference
//! pixel, row by row. [`get_sad_approx`] computes the same sum one row at a
//! time. It slices each visited reference and candidate row out of its
//! plane, copies it into a fixed-size array and runs one loop per
//! [`InterpKind`], which compiles to byte averages and a sum of absolute
//! differences. Integer sums of the same terms are equal in any order, and
//! the early-exit test still runs after every full row, so every mode is
//! bit-identical to the per-pixel definition. [`get_sad`] is the exact mode
//! of the same body.

use crate::types::{Mv, Plane};
use crate::MB;

/// Half-sample interpolation kind of a candidate predictor (the paper's
/// "no / horizontal / vertical / diagonal interpolation" cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InterpKind {
    /// Integer-sample candidate.
    #[default]
    None,
    /// Horizontal half-sample.
    H,
    /// Vertical half-sample.
    V,
    /// Diagonal half-sample (both components odd).
    Diag,
}

impl InterpKind {
    /// Columns of predictor pixels needed (16 or 17).
    #[must_use]
    pub fn cols(self) -> usize {
        MB + usize::from(matches!(self, InterpKind::H | InterpKind::Diag))
    }

    /// Rows of predictor pixels needed (16 or 17).
    #[must_use]
    pub fn rows(self) -> usize {
        MB + usize::from(matches!(self, InterpKind::V | InterpKind::Diag))
    }

    /// The 2-bit code of this kind: none 0, H 1, V 2, diagonal 3. It is
    /// the `GetSad` kernels' interpolation argument and part of every
    /// scenario cache key, so it must never change.
    #[must_use]
    pub fn code(self) -> u32 {
        match self {
            InterpKind::None => 0,
            InterpKind::H => 1,
            InterpKind::V => 2,
            InterpKind::Diag => 3,
        }
    }
}

/// The interpolation kind selected by a motion vector's half-sample flags.
#[must_use]
pub fn interp_mode_of(mv: Mv) -> InterpKind {
    match mv.half_flags() {
        (false, false) => InterpKind::None,
        (true, false) => InterpKind::H,
        (false, true) => InterpKind::V,
        (true, true) => InterpKind::Diag,
    }
}

/// One interpolated predictor pixel at integer position `(x, y)` of the
/// reference plane (rounding control 0, as in the case study).
///
/// # Panics
///
/// Panics when the required neighborhood leaves the plane.
#[must_use]
pub fn pred_pixel(plane: &Plane, x: usize, y: usize, kind: InterpKind) -> u8 {
    let p = |dx: usize, dy: usize| u16::from(plane.at(x + dx, y + dy));
    (match kind {
        InterpKind::None => p(0, 0),
        InterpKind::H => (p(0, 0) + p(1, 0) + 1) >> 1,
        InterpKind::V => (p(0, 0) + p(0, 1) + 1) >> 1,
        InterpKind::Diag => (p(0, 0) + p(1, 0) + p(0, 1) + p(1, 1) + 2) >> 2,
    }) as u8
}

/// `GetSad`: SAD between the 16×16 reference block at `(rx, ry)` of `cur`
/// and the (possibly interpolated) candidate at integer position `(cx, cy)`
/// of `prev`.
///
/// # Panics
///
/// Panics when either block (including the interpolation border) leaves its
/// plane.
#[must_use]
pub fn get_sad(
    cur: &Plane,
    rx: usize,
    ry: usize,
    prev: &Plane,
    cx: usize,
    cy: usize,
    kind: InterpKind,
) -> u32 {
    get_sad_approx(cur, rx, ry, prev, cx, cy, kind, ApproxSad::Exact)
}

/// An approximate-SAD mode: trade SAD fidelity for kernel cycles. The
/// scalar semantics here are the golden model; the VLIW kernels and the
/// RFU loop implement exactly the same arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ApproxSad {
    /// The exact SAD (the paper's baseline).
    #[default]
    Exact,
    /// Sum only rows `0, step, 2·step, …` of the block.
    SubsampledRows {
        /// Row step; a power of two in `{2, 4}`.
        step: u8,
    },
    /// Mask the `bits` low bits of every reference and (interpolated)
    /// predictor pixel before the absolute difference.
    ReducedPrecision {
        /// Low bits dropped per pixel (`1..=4`).
        bits: u8,
    },
    /// Accumulate full rows in order and stop as soon as the running SAD
    /// exceeds `threshold` (the partial sum is returned).
    EarlyExit {
        /// The abort threshold.
        threshold: u32,
    },
}

impl ApproxSad {
    /// Whether this is the exact mode.
    #[must_use]
    pub fn is_exact(self) -> bool {
        self == ApproxSad::Exact
    }

    /// The per-pixel byte mask (`0xFF` except for
    /// [`ApproxSad::ReducedPrecision`]).
    #[must_use]
    pub fn pixel_mask(self) -> u8 {
        match self {
            ApproxSad::ReducedPrecision { bits } => !((1u8 << bits.min(7)) - 1),
            _ => 0xFF,
        }
    }

    /// The row step (1 except for [`ApproxSad::SubsampledRows`]).
    #[must_use]
    pub fn row_step(self) -> usize {
        match self {
            ApproxSad::SubsampledRows { step } => usize::from(step.max(1)),
            _ => 1,
        }
    }
}

/// [`get_sad`] under an approximation mode. `ApproxSad::Exact` is
/// bit-identical to [`get_sad`].
///
/// Works one visited row at a time (see the module docs). A row is sliced
/// only when the per-pixel definition would read it, so subsampled and
/// early-exit modes touch exactly the rows they always did. Every slice is
/// bounds-checked against its own row: a footprint overhanging the right
/// edge panics instead of wrapping into the next row.
///
/// # Panics
///
/// As for [`get_sad`].
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors `get_sad` plus the mode
pub fn get_sad_approx(
    cur: &Plane,
    rx: usize,
    ry: usize,
    prev: &Plane,
    cx: usize,
    cy: usize,
    kind: InterpKind,
    approx: ApproxSad,
) -> u32 {
    let mask = approx.pixel_mask();
    let cols = cx..cx + kind.cols();
    let mut sad = 0u32;
    let mut y = 0;
    while y < MB {
        let below: &[u8] = if kind.rows() > MB {
            &prev.row(cy + y + 1)[cols.clone()]
        } else {
            &[]
        };
        let r = &cur.row(ry + y)[rx..rx + MB];
        sad += row_sad(kind, &prev.row(cy + y)[cols.clone()], below, r, mask);
        if let ApproxSad::EarlyExit { threshold } = approx {
            if sad > threshold {
                return sad;
            }
        }
        y += approx.row_step();
    }
    sad
}

/// SAD of one row: the 16 predictor pixels interpolated from candidate
/// row `c0` (and `c1`, the row below, for vertical and diagonal kinds)
/// against reference row `r`, every pixel masked by `mask`. Same
/// arithmetic as [`pred_pixel`], one loop per kind. The rows are copied
/// into fixed-size arrays first so the loops compile to a few SIMD
/// instructions (byte averages and a sum of absolute differences).
#[inline]
fn row_sad(kind: InterpKind, c0: &[u8], c1: &[u8], r: &[u8], mask: u8) -> u32 {
    let mut pred: [u8; MB] = row(c0);
    match kind {
        InterpKind::None => {}
        InterpKind::H => {
            let a: [u8; MB + 1] = row(c0);
            for x in 0..MB {
                pred[x] = ((u16::from(a[x]) + u16::from(a[x + 1]) + 1) >> 1) as u8;
            }
        }
        InterpKind::V => {
            let b: [u8; MB] = row(c1);
            for x in 0..MB {
                pred[x] = ((u16::from(pred[x]) + u16::from(b[x]) + 1) >> 1) as u8;
            }
        }
        InterpKind::Diag => {
            let (a, b): ([u8; MB + 1], [u8; MB + 1]) = (row(c0), row(c1));
            for x in 0..MB {
                let s =
                    u16::from(a[x]) + u16::from(a[x + 1]) + u16::from(b[x]) + u16::from(b[x + 1]);
                pred[x] = ((s + 2) >> 2) as u8;
            }
        }
    }
    let r: [u8; MB] = row(r);
    let mut sad = 0u32;
    for x in 0..MB {
        sad += u32::from((pred[x] & mask).abs_diff(r[x] & mask));
    }
    sad
}

/// The first `M` bytes of `pixels` as an array.
#[inline]
fn row<const M: usize>(pixels: &[u8]) -> [u8; M] {
    let mut out = [0; M];
    out.copy_from_slice(&pixels[..M]);
    out
}

/// Whether a candidate at integer position `(cx, cy)` with interpolation
/// `kind` fits inside `plane`.
#[must_use]
pub fn candidate_fits(plane: &Plane, cx: isize, cy: isize, kind: InterpKind) -> bool {
    cx >= 0
        && cy >= 0
        && (cx as usize) + kind.cols() <= plane.width()
        && (cy as usize) + kind.rows() <= plane.height()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> Plane {
        let mut p = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                p.set(x, y, ((x * 3 + y * 7) % 251) as u8);
            }
        }
        p
    }

    #[test]
    fn sad_of_identical_blocks_is_zero() {
        let p = ramp(64, 64);
        assert_eq!(get_sad(&p, 8, 8, &p, 8, 8, InterpKind::None), 0);
    }

    #[test]
    fn sad_positive_for_shifted_block() {
        let p = ramp(64, 64);
        assert!(get_sad(&p, 8, 8, &p, 9, 8, InterpKind::None) > 0);
    }

    #[test]
    fn interp_mode_from_mv_flags() {
        assert_eq!(interp_mode_of(Mv::new(2, 4)), InterpKind::None);
        assert_eq!(interp_mode_of(Mv::new(3, 4)), InterpKind::H);
        assert_eq!(interp_mode_of(Mv::new(2, 5)), InterpKind::V);
        assert_eq!(interp_mode_of(Mv::new(-1, 1)), InterpKind::Diag);
    }

    #[test]
    fn pred_pixel_rounding_matches_mpeg4() {
        let mut p = Plane::new(4, 4);
        p.set(0, 0, 10);
        p.set(1, 0, 11);
        p.set(0, 1, 20);
        p.set(1, 1, 21);
        assert_eq!(pred_pixel(&p, 0, 0, InterpKind::None), 10);
        assert_eq!(pred_pixel(&p, 0, 0, InterpKind::H), 11); // (21+1)>>1
        assert_eq!(pred_pixel(&p, 0, 0, InterpKind::V), 15); // (30+1)>>1
        assert_eq!(pred_pixel(&p, 0, 0, InterpKind::Diag), 16); // (62+2)>>2
    }

    #[test]
    fn footprint_dimensions_per_kind() {
        assert_eq!((InterpKind::None.cols(), InterpKind::None.rows()), (16, 16));
        assert_eq!((InterpKind::H.cols(), InterpKind::H.rows()), (17, 16));
        assert_eq!((InterpKind::V.cols(), InterpKind::V.rows()), (16, 17));
        assert_eq!((InterpKind::Diag.cols(), InterpKind::Diag.rows()), (17, 17));
    }

    #[test]
    fn candidate_fits_respects_interpolation_border() {
        let p = Plane::new(32, 32);
        assert!(candidate_fits(&p, 16, 16, InterpKind::None));
        assert!(!candidate_fits(&p, 16, 16, InterpKind::Diag));
        assert!(candidate_fits(&p, 15, 15, InterpKind::Diag));
        assert!(!candidate_fits(&p, -1, 0, InterpKind::None));
    }

    #[test]
    fn exact_approx_mode_matches_get_sad() {
        let p = ramp(64, 64);
        for kind in [
            InterpKind::None,
            InterpKind::H,
            InterpKind::V,
            InterpKind::Diag,
        ] {
            assert_eq!(
                get_sad_approx(&p, 8, 8, &p, 9, 10, kind, ApproxSad::Exact),
                get_sad(&p, 8, 8, &p, 9, 10, kind),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn approx_modes_never_exceed_the_exact_sad() {
        let p = ramp(64, 64);
        for kind in [
            InterpKind::None,
            InterpKind::H,
            InterpKind::V,
            InterpKind::Diag,
        ] {
            let exact = get_sad(&p, 8, 8, &p, 11, 9, kind);
            for approx in [
                ApproxSad::SubsampledRows { step: 2 },
                ApproxSad::SubsampledRows { step: 4 },
                ApproxSad::EarlyExit { threshold: 100 },
                ApproxSad::EarlyExit { threshold: 0 },
            ] {
                let a = get_sad_approx(&p, 8, 8, &p, 11, 9, kind, approx);
                assert!(a <= exact, "{kind:?} {approx:?}: {a} > {exact}");
            }
        }
    }

    #[test]
    fn early_exit_is_exact_or_above_threshold() {
        let p = ramp(64, 64);
        for threshold in [0u32, 50, 500, 5000, u32::MAX] {
            let exact = get_sad(&p, 8, 8, &p, 12, 13, InterpKind::None);
            let a = get_sad_approx(
                &p,
                8,
                8,
                &p,
                12,
                13,
                InterpKind::None,
                ApproxSad::EarlyExit { threshold },
            );
            assert!(a == exact || a > threshold, "t={threshold}: {a} vs {exact}");
        }
    }

    #[test]
    fn reduced_precision_masks_both_operands() {
        let mut cur = Plane::new(32, 32);
        let mut prev = Plane::new(32, 32);
        // Differences live entirely in the low 2 bits: masking them away
        // must null the SAD.
        for y in 0..32 {
            for x in 0..32 {
                cur.set(x, y, 0x40 | ((x as u8) & 3));
                prev.set(x, y, 0x40 | ((y as u8) & 3));
            }
        }
        assert_eq!(
            get_sad_approx(
                &cur,
                0,
                0,
                &prev,
                0,
                0,
                InterpKind::None,
                ApproxSad::ReducedPrecision { bits: 2 }
            ),
            0
        );
        assert!(get_sad(&cur, 0, 0, &prev, 0, 0, InterpKind::None) > 0);
    }

    #[test]
    fn subsampled_rows_sum_only_sampled_rows() {
        let p = ramp(64, 64);
        let mut manual = 0u32;
        for y in (0..MB).step_by(4) {
            for x in 0..MB {
                let r = p.at(8 + x, 8 + y);
                let q = pred_pixel(&p, 9 + x, 10 + y, InterpKind::Diag);
                manual += u32::from(r.abs_diff(q));
            }
        }
        assert_eq!(
            get_sad_approx(
                &p,
                8,
                8,
                &p,
                9,
                10,
                InterpKind::Diag,
                ApproxSad::SubsampledRows { step: 4 }
            ),
            manual
        );
    }

    #[test]
    fn diag_sad_uses_all_four_neighbours() {
        let mut prev = Plane::new(40, 40);
        let mut cur = Plane::new(40, 40);
        for y in 0..40 {
            for x in 0..40 {
                prev.set(x, y, ((x + y) % 256) as u8);
            }
        }
        // Build cur as the exact diagonal interpolation of prev at (4, 4):
        // the SAD must then be exactly zero.
        for y in 0..16 {
            for x in 0..16 {
                cur.set(
                    x + 8,
                    y + 8,
                    pred_pixel(&prev, x + 4, y + 4, InterpKind::Diag),
                );
            }
        }
        assert_eq!(get_sad(&cur, 8, 8, &prev, 4, 4, InterpKind::Diag), 0);
    }
}
