//! Half-sample motion compensation and block reconstruction.

use crate::sad::{interp_mode_of, pred_pixel};
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
        crate::sad::candidate_fits(prev, cx, cy, kind),
        "MC block ({cx},{cy}) leaves the reference plane"
    );
    let (cx, cy) = (cx as usize, cy as usize);
    let mut out = [0u8; MB * MB];
    for y in 0..MB {
        for x in 0..MB {
            out[y * MB + x] = pred_pixel(prev, cx + x, cy + y, kind);
        }
    }
    out
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
