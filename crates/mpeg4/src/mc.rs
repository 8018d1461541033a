//! Half-sample motion compensation and block reconstruction.
//!
//! Predictors are built one row at a time with [`pred_row`], the function
//! `GetSad` interpolates its candidates with.

use crate::sad::{candidate_fits, interp_mode_of, pred_row, InterpKind};
use crate::types::{Mv, Plane};
use crate::MB;

/// Builds the 16×16 luma prediction for macroblock `(mbx, mby)` from the
/// reference plane and motion vector `mv` (half-sample units).
///
/// # Panics
///
/// Panics when the motion-compensated block leaves the reference plane.
#[must_use]
pub fn predict_mb(prev: &Plane, mbx: usize, mby: usize, mv: Mv) -> [u8; MB * MB] {
    let kind = interp_mode_of(mv);
    let (ix, iy) = mv.int_part();
    let cx = (mbx * MB) as isize + isize::from(ix);
    let cy = (mby * MB) as isize + isize::from(iy);
    assert!(
        candidate_fits(prev, cx, cy, kind),
        "MC block ({cx},{cy}) leaves the reference plane"
    );
    let mut out = [0u8; MB * MB];
    predict_rows::<MB>(&mut out, prev, cx as usize, cy as usize, kind);
    out
}

/// The 8×8 chroma prediction for macroblock `(mbx, mby)` from the chroma
/// reference plane and the chroma vector `cmv` ([`chroma_mv`]).
///
/// A block whose vector points outward at the plane's border is clamped
/// into the plane. The clamp keeps a luma-sized footprint (16 or 17
/// samples, [`InterpKind::cols`]) inside the plane, which the bitstream
/// depends on.
///
/// # Panics
///
/// Panics when the plane is narrower or shorter than that footprint.
#[must_use]
pub(crate) fn predict_chroma(prev: &Plane, mbx: usize, mby: usize, cmv: Mv) -> [u8; 64] {
    let kind = interp_mode_of(cmv);
    let (ix, iy) = cmv.int_part();
    let cx = ((mbx * 8) as isize + isize::from(ix))
        .clamp(0, (prev.width() - kind.cols().min(prev.width())) as isize) as usize;
    let cy = ((mby * 8) as isize + isize::from(iy))
        .clamp(0, (prev.height() - kind.rows().min(prev.height())) as isize) as usize;
    let mut out = [0u8; 64];
    predict_rows::<8>(&mut out, prev, cx, cy, kind);
    out
}

/// Fills `out`, `W` samples per row, with the predictor at integer
/// position `(cx, cy)` of `prev`, one [`pred_row`] per row.
fn predict_rows<const W: usize>(
    out: &mut [u8],
    prev: &Plane,
    cx: usize,
    cy: usize,
    kind: InterpKind,
) {
    let below = matches!(kind, InterpKind::V | InterpKind::Diag);
    for (y, row) in out.chunks_exact_mut(W).enumerate() {
        let c1: &[u8] = if below {
            &prev.row(cy + y + 1)[cx..]
        } else {
            &[]
        };
        row.copy_from_slice(&pred_row::<W>(kind, &prev.row(cy + y)[cx..], c1));
    }
}

/// Chroma motion compensation: the luma vector divided by two with MPEG-4
/// rounding (towards the nearest half-sample position).
#[must_use]
pub fn chroma_mv(luma: Mv) -> Mv {
    // MPEG-4: chroma MV components are luma/2, rounded so that half-sample
    // positions are preferred (1/4 and 3/4 both map to 1/2).
    let round = |v: i16| -> i16 {
        let q = v.div_euclid(2);
        let r = v.rem_euclid(2);
        if r == 0 {
            q
        } else {
            // v/2 ends in .5 ⇒ keep the half-sample.
            if q % 2 == 0 {
                q + 1
            } else {
                q
            }
        }
    };
    Mv::new(round(luma.x), round(luma.y))
}

/// Adds a residual to a prediction, clamping to 0..=255, and writes the
/// result into `plane` at macroblock `(mbx, mby)`.
///
/// # Panics
///
/// Panics when the macroblock leaves the plane.
pub fn reconstruct_mb(
    plane: &mut Plane,
    mbx: usize,
    mby: usize,
    pred: &[u8; MB * MB],
    residual: &[i32; MB * MB],
) {
    for (y, out) in plane.block_rows_mut(mbx * MB, mby * MB, MB, MB).enumerate() {
        for (x, px) in out.iter_mut().enumerate() {
            let v = i32::from(pred[y * MB + x]) + residual[y * MB + x];
            *px = v.clamp(0, 255) as u8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> Plane {
        let mut p = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                p.set(x, y, ((x * 5 + y * 11) % 256) as u8);
            }
        }
        p
    }

    #[test]
    fn zero_mv_prediction_copies_block() {
        let prev = ramp(64, 64);
        let pred = predict_mb(&prev, 1, 1, Mv::default());
        for y in 0..MB {
            for x in 0..MB {
                assert_eq!(pred[y * MB + x], prev.at(16 + x, 16 + y));
            }
        }
    }

    #[test]
    fn integer_mv_prediction_shifts() {
        let prev = ramp(64, 64);
        let pred = predict_mb(&prev, 1, 1, Mv::from_int(3, -2));
        assert_eq!(pred[0], prev.at(19, 14));
    }

    #[test]
    fn half_mv_prediction_interpolates() {
        let prev = ramp(64, 64);
        let pred = predict_mb(&prev, 1, 1, Mv::new(1, 0));
        let expect = (u16::from(prev.at(16, 16)) + u16::from(prev.at(17, 16)) + 1) >> 1;
        assert_eq!(u16::from(pred[0]), expect);
    }

    #[test]
    fn reconstruct_clamps_to_byte_range() {
        let mut plane = Plane::new(32, 32);
        let pred = [250u8; MB * MB];
        let mut residual = [20i32; MB * MB];
        residual[0] = -300;
        reconstruct_mb(&mut plane, 0, 0, &pred, &residual);
        assert_eq!(plane.at(0, 0), 0);
        assert_eq!(plane.at(1, 0), 255);
    }

    #[test]
    fn chroma_mv_halving_rule() {
        assert_eq!(chroma_mv(Mv::new(4, -4)), Mv::new(2, -2)); // 2.0 px -> 1.0
        assert_eq!(chroma_mv(Mv::new(2, 6)), Mv::new(1, 3)); // 1.0 -> 0.5
        assert_eq!(chroma_mv(Mv::new(3, 0)), Mv::new(1, 0)); // 1.5 -> 0.75 -> 0.5
        assert_eq!(chroma_mv(Mv::new(1, 1)), Mv::new(1, 1)); // 0.5 -> 0.25 -> 0.5
    }
}
