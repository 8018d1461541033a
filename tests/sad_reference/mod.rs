//! The per-pixel `GetSad` definition, kept verbatim as a reference model.
//!
//! `mpeg4::sad::get_sad_approx` computes the SAD one row slice at a time.
//! This module keeps the original per-pixel loops, one bounds-checked
//! `Plane::at` per sample, so the differential suites can pin the fast
//! body to the definition instead of to itself.

use rvliw::mpeg4::sad::{ApproxSad, InterpKind};
use rvliw::mpeg4::types::Plane;

/// Macroblock edge.
const MB: usize = 16;

/// One interpolated predictor pixel at integer position `(x, y)` of the
/// reference plane (rounding control 0).
///
/// # Panics
///
/// Panics when the required neighborhood leaves the plane.
pub fn pred_pixel(plane: &Plane, x: usize, y: usize, kind: InterpKind) -> u8 {
    let p = |dx: usize, dy: usize| u16::from(plane.at(x + dx, y + dy));
    (match kind {
        InterpKind::None => p(0, 0),
        InterpKind::H => (p(0, 0) + p(1, 0) + 1) >> 1,
        InterpKind::V => (p(0, 0) + p(0, 1) + 1) >> 1,
        InterpKind::Diag => (p(0, 0) + p(1, 0) + p(0, 1) + p(1, 1) + 2) >> 2,
    }) as u8
}

/// `GetSad` under an approximation mode, pixel by pixel.
///
/// # Panics
///
/// Panics when either block (including the interpolation border) leaves
/// its plane on a row the mode visits.
#[allow(clippy::too_many_arguments)] // mirrors `get_sad_approx`
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
    let mut sad = 0u32;
    let mut y = 0;
    while y < MB {
        for x in 0..MB {
            let r = cur.at(rx + x, ry + y) & mask;
            let p = pred_pixel(prev, cx + x, cy + y, kind) & mask;
            sad += u32::from(r.abs_diff(p));
        }
        if let ApproxSad::EarlyExit { threshold } = approx {
            if sad > threshold {
                return sad;
            }
        }
        y += approx.row_step();
    }
    sad
}
