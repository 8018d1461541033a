//! Deterministic synthetic QCIF sequence — the Foreman substitute.
//!
//! The generator composes, per frame:
//!
//! * a smooth textured background (sum of low-frequency sinusoids plus a
//!   fixed-pattern texture) that **pans globally** with a slowly varying
//!   sub-pixel velocity — this is what makes half-sample (including
//!   diagonal) predictors win for a realistic share of macroblocks;
//! * a few textured **foreground objects** moving with their own sub-pixel
//!   velocities (head-and-shoulders-like local motion);
//! * mild deterministic per-pixel noise (sensor grain), so SADs are never
//!   degenerate zeros.
//!
//! Everything is seeded and reproducible; two calls with the same
//! parameters yield identical sequences.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::types::Frame;
use crate::{QCIF_H, QCIF_W};

/// A deterministic synthetic video source.
#[derive(Debug, Clone)]
pub struct SyntheticSequence {
    width: usize,
    height: usize,
    frames: usize,
    seed: u64,
}

impl SyntheticSequence {
    /// The case-study default: 25 QCIF frames, the paper's sequence length.
    #[must_use]
    pub fn qcif_25() -> Self {
        SyntheticSequence::new(QCIF_W, QCIF_H, 25, 0x4652_4d4e) // "FRMN"
    }

    /// A custom source.
    ///
    /// # Panics
    ///
    /// Panics unless dimensions are multiples of 16.
    #[must_use]
    pub fn new(width: usize, height: usize, frames: usize, seed: u64) -> Self {
        assert!(
            width.is_multiple_of(16) && height.is_multiple_of(16),
            "whole macroblocks"
        );
        SyntheticSequence {
            width,
            height,
            frames,
            seed,
        }
    }

    /// Number of frames this source generates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames
    }

    /// Whether the source is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Generates all frames.
    #[must_use]
    pub fn generate(&self) -> Vec<Frame> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Object parameters: position, velocity (sub-pixel), size, texture
        // phase. Velocities are fractional so interpolated predictors win.
        let mut objects: Vec<ObjectState> = (0..3)
            .map(|i| ObjectState {
                x: rng.gen_range(0.1..0.7) * self.width as f64,
                y: rng.gen_range(0.1..0.7) * self.height as f64,
                vx: rng.gen_range(-1.4..1.4),
                vy: rng.gen_range(-1.1..1.1),
                w: rng.gen_range(24.0..56.0),
                h: rng.gen_range(24.0..56.0),
                phase: f64::from(i as u8) * 1.7 + rng.gen_range(0.0..1.0),
            })
            .collect();
        // Global pan velocity drifts slowly; amplitudes chosen so that both
        // integer and half-sample displacements occur between frames.
        let mut pan_x = 0.0f64;
        let mut pan_y = 0.0f64;
        let mut pan_vx = rng.gen_range(0.4..1.2);
        let mut pan_vy = rng.gen_range(-0.6..0.2);

        let mut frames = Vec::with_capacity(self.frames);
        for t in 0..self.frames {
            let frame = self.render(t, pan_x, pan_y, &objects, self.seed);
            frames.push(frame);
            // Advance motion state.
            pan_x += pan_vx;
            pan_y += pan_vy;
            pan_vx += rng.gen_range(-0.15..0.15);
            pan_vy += rng.gen_range(-0.15..0.15);
            pan_vx = pan_vx.clamp(-1.6, 1.6);
            pan_vy = pan_vy.clamp(-1.2, 1.2);
            for o in &mut objects {
                o.x += o.vx;
                o.y += o.vy;
                // Bounce softly off the frame edges.
                if o.x < -o.w * 0.5 || o.x > self.width as f64 - o.w * 0.5 {
                    o.vx = -o.vx;
                }
                if o.y < -o.h * 0.5 || o.y > self.height as f64 - o.h * 0.5 {
                    o.vy = -o.vy;
                }
            }
        }
        frames
    }

    /// Renders one frame at the given global pan offset.
    fn render(
        &self,
        t: usize,
        pan_x: f64,
        pan_y: f64,
        objects: &[ObjectState],
        seed: u64,
    ) -> Frame {
        let mut frame = Frame::new(self.width, self.height);
        // The background's separable factors, once per column and per row.
        let cols: Vec<Column> = (0..self.width)
            .map(|x| Column::new(x as f64 + pan_x))
            .collect();
        let luma = frame.y.block_rows_mut(0, 0, self.width, self.height);
        for (y, out) in luma.enumerate() {
            let row = Row::new(y as f64 + pan_y);
            for ((x, col), px) in cols.iter().enumerate().zip(out) {
                let (wx, wy) = (col.wx, row.wy);
                let mut v = background(col, &row);
                for o in objects {
                    if (wx - o.x - pan_x).abs() < o.w * 0.5 && (wy - o.y - pan_y).abs() < o.h * 0.5
                    {
                        // The object's own texture, anchored to the object
                        // so it moves with it.
                        let ox = wx - o.x - pan_x;
                        let oy = wy - o.y - pan_y;
                        v = object_texture(ox, oy, o.phase);
                    }
                }
                // Deterministic grain: a cheap hash of (x, y, t, seed).
                let g = grain(x as u64, y as u64, t as u64, seed);
                *px = (v + g).clamp(0.0, 255.0) as u8;
            }
        }
        // Chroma: smooth gradients that follow the pan (little detail, as
        // in natural video). Both are separable: per-column and per-row
        // terms.
        let (cw, ch) = (self.width / 2, self.height / 2);
        let ccols: Vec<(f64, f64)> = (0..cw)
            .map(|x| {
                let wx = x as f64 * 2.0 + pan_x;
                ((wx * 0.011).sin(), (wx * 0.013).cos())
            })
            .collect();
        let u_rows = frame.u.block_rows_mut(0, 0, cw, ch);
        let v_rows = frame.v.block_rows_mut(0, 0, cw, ch);
        for (y, (u_out, v_out)) in u_rows.zip(v_rows).enumerate() {
            let wy = y as f64 * 2.0 + pan_y;
            let (u_row, v_row) = ((wy * 0.017).cos(), (wy * 0.009).sin());
            for ((&(u_col, v_col), u_px), v_px) in ccols.iter().zip(u_out).zip(v_out) {
                let u = 128.0 + 24.0 * (u_col + u_row);
                let v = 128.0 + 24.0 * (v_col - v_row);
                *u_px = u.clamp(0.0, 255.0) as u8;
                *v_px = v.clamp(0.0, 255.0) as u8;
            }
        }
        frame
    }
}

#[derive(Debug, Clone)]
struct ObjectState {
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    w: f64,
    h: f64,
    phase: f64,
}

/// The background terms that depend on the world x coordinate only.
struct Column {
    wx: f64,
    sin_041: f64,
    sin_31: f64,
}

impl Column {
    fn new(wx: f64) -> Self {
        Column {
            wx,
            sin_041: (wx * 0.041).sin(),
            sin_31: (wx * 0.31).sin(),
        }
    }
}

/// The background terms that depend on the world y coordinate only.
struct Row {
    wy: f64,
    cos_035: f64,
    sin_27: f64,
}

impl Row {
    fn new(wy: f64) -> Self {
        Row {
            wy,
            cos_035: (wy * 0.035).cos(),
            sin_27: (wy * 0.27).sin(),
        }
    }
}

/// Smooth, pan-anchored background luminance at world `(col.wx, row.wy)`:
/// `120 + 40·sin(0.041x)·cos(0.035y) + 22·sin(0.013x + 0.022y) +
/// 12·(sin(0.31x)·sin(0.27y))`, evaluated in exactly that association.
fn background(col: &Column, row: &Row) -> f64 {
    120.0
        + 40.0 * col.sin_041 * row.cos_035
        + 22.0 * (col.wx * 0.013 + row.wy * 0.022).sin()
        + 12.0 * (col.sin_31 * row.sin_27)
}

/// The background luminance at world coordinates `(wx, wy)`, bit for bit
/// as a rendered frame evaluates it (before objects and grain). Frames
/// only show it truncated to 8 bits, where a one-ulp drift from a
/// reassociated term almost never surfaces; this exposes the exact value.
#[must_use]
pub fn background_at(wx: f64, wy: f64) -> f64 {
    background(&Column::new(wx), &Row::new(wy))
}

/// Foreground object texture (higher spatial frequency than background).
fn object_texture(ox: f64, oy: f64, phase: f64) -> f64 {
    140.0
        + 50.0 * ((ox * 0.23 + phase).sin() * (oy * 0.19 - phase).cos())
        + 18.0 * (ox * 0.07 + oy * 0.11).sin()
}

/// Deterministic grain in [-3, +3].
fn grain(x: u64, y: u64, t: u64, seed: u64) -> f64 {
    let mut h = x
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(y.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(t.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(seed);
    h ^= h >> 31;
    h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^= h >> 29;
    ((h % 7) as f64) - 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = SyntheticSequence::new(64, 48, 3, 42).generate();
        let b = SyntheticSequence::new(64, 48, 3, 42).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticSequence::new(64, 48, 2, 1).generate();
        let b = SyntheticSequence::new(64, 48, 2, 2).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn qcif_defaults() {
        let s = SyntheticSequence::qcif_25();
        assert_eq!(s.len(), 25);
        let frames = s.generate();
        assert_eq!(frames.len(), 25);
        assert_eq!(frames[0].width(), 176);
        assert_eq!(frames[0].height(), 144);
    }

    #[test]
    fn frames_actually_move() {
        let frames = SyntheticSequence::new(64, 48, 2, 7).generate();
        let diff: u64 = frames[0]
            .y
            .data()
            .iter()
            .zip(frames[1].y.data())
            .map(|(&a, &b)| u64::from(a.abs_diff(b)))
            .sum();
        // Motion plus grain: the frames must differ substantially.
        assert!(diff > 1000, "inter-frame difference {diff}");
    }

    #[test]
    fn luma_covers_a_wide_range() {
        let frames = SyntheticSequence::new(64, 48, 1, 3).generate();
        let min = frames[0].y.data().iter().copied().min().unwrap();
        let max = frames[0].y.data().iter().copied().max().unwrap();
        assert!(max - min > 60, "dynamic range {min}..{max}");
    }
}
