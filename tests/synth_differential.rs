//! `SyntheticSequence::generate` evaluates the background's separable
//! sine terms once per column and once per row. This suite pins it to
//! the original per-pixel formula, kept verbatim below as the reference
//! model, across frame sizes, seeds and long pans (the world coordinate
//! runs far from the origin). Frames hold the luminance truncated to 8
//! bits, which hides a one-ulp drift, so the background's `f64` value is
//! also compared bit for bit through `synth::background_at`.
//!
//! This file rides in the no-panic clippy gate: no `unwrap`/`expect`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rvliw::mpeg4::synth::background_at;
use rvliw::mpeg4::types::{Frame, Plane};
use rvliw::mpeg4::SyntheticSequence;

struct ObjectState {
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    w: f64,
    h: f64,
    phase: f64,
}

/// The reference generator: the motion model of `generate` and a
/// per-pixel `render`.
fn reference_generate(width: usize, height: usize, n: usize, seed: u64) -> Vec<Frame> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut objects: Vec<ObjectState> = (0..3)
        .map(|i| ObjectState {
            x: rng.gen_range(0.1..0.7) * width as f64,
            y: rng.gen_range(0.1..0.7) * height as f64,
            vx: rng.gen_range(-1.4..1.4),
            vy: rng.gen_range(-1.1..1.1),
            w: rng.gen_range(24.0..56.0),
            h: rng.gen_range(24.0..56.0),
            phase: f64::from(i as u8) * 1.7 + rng.gen_range(0.0..1.0),
        })
        .collect();
    let mut pan_x = 0.0f64;
    let mut pan_y = 0.0f64;
    let mut pan_vx = rng.gen_range(0.4..1.2);
    let mut pan_vy = rng.gen_range(-0.6..0.2);
    let mut frames = Vec::with_capacity(n);
    for t in 0..n {
        frames.push(reference_render(
            width, height, t, pan_x, pan_y, &objects, seed,
        ));
        pan_x += pan_vx;
        pan_y += pan_vy;
        pan_vx += rng.gen_range(-0.15..0.15);
        pan_vy += rng.gen_range(-0.15..0.15);
        pan_vx = pan_vx.clamp(-1.6, 1.6);
        pan_vy = pan_vy.clamp(-1.2, 1.2);
        for o in &mut objects {
            o.x += o.vx;
            o.y += o.vy;
            if o.x < -o.w * 0.5 || o.x > width as f64 - o.w * 0.5 {
                o.vx = -o.vx;
            }
            if o.y < -o.h * 0.5 || o.y > height as f64 - o.h * 0.5 {
                o.vy = -o.vy;
            }
        }
    }
    frames
}

#[allow(clippy::too_many_arguments)]
fn reference_render(
    width: usize,
    height: usize,
    t: usize,
    pan_x: f64,
    pan_y: f64,
    objects: &[ObjectState],
    seed: u64,
) -> Frame {
    let mut frame = Frame::new(width, height);
    let mut luma = Plane::new(width, height);
    for y in 0..height {
        for x in 0..width {
            let wx = x as f64 + pan_x;
            let wy = y as f64 + pan_y;
            let mut v = background(wx, wy);
            for o in objects {
                if (wx - o.x - pan_x).abs() < o.w * 0.5 && (wy - o.y - pan_y).abs() < o.h * 0.5 {
                    let ox = wx - o.x - pan_x;
                    let oy = wy - o.y - pan_y;
                    v = object_texture(ox, oy, o.phase);
                }
            }
            let g = grain(x as u64, y as u64, t as u64, seed);
            let v = (v + g).clamp(0.0, 255.0);
            luma.set(x, y, v as u8);
        }
    }
    frame.y = luma;
    for y in 0..height / 2 {
        for x in 0..width / 2 {
            let wx = x as f64 * 2.0 + pan_x;
            let wy = y as f64 * 2.0 + pan_y;
            let u = 128.0 + 24.0 * ((wx * 0.011).sin() + (wy * 0.017).cos());
            let v = 128.0 + 24.0 * ((wx * 0.013).cos() - (wy * 0.009).sin());
            frame.u.set(x, y, u.clamp(0.0, 255.0) as u8);
            frame.v.set(x, y, v.clamp(0.0, 255.0) as u8);
        }
    }
    frame
}

/// The background luminance, one evaluation of every term per pixel.
fn background(x: f64, y: f64) -> f64 {
    120.0
        + 40.0 * (x * 0.041).sin() * (y * 0.035).cos()
        + 22.0 * (x * 0.013 + y * 0.022).sin()
        + 12.0 * ((x * 0.31).sin() * (y * 0.27).sin())
}

fn object_texture(ox: f64, oy: f64, phase: f64) -> f64 {
    140.0
        + 50.0 * ((ox * 0.23 + phase).sin() * (oy * 0.19 - phase).cos())
        + 18.0 * (ox * 0.07 + oy * 0.11).sin()
}

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

fn assert_matches_reference(width: usize, height: usize, n: usize, seed: u64) {
    let fast = SyntheticSequence::new(width, height, n, seed).generate();
    let reference = reference_generate(width, height, n, seed);
    assert_eq!(fast.len(), reference.len());
    for (t, (f, r)) in fast.iter().zip(&reference).enumerate() {
        assert!(
            f == r,
            "{width}x{height} seed {seed:#x}: frame {t} differs from the per-pixel formula"
        );
    }
}

#[test]
fn generate_equals_the_per_pixel_formula() {
    for (width, height, n, seed) in [
        (176, 144, 3, 0x4652_4d4e), // the paper's sequence, its first frames
        (64, 48, 6, 1),
        (64, 48, 6, 7),
        (96, 32, 4, 0xdead_beef),
        (16, 16, 5, 42),
    ] {
        assert_matches_reference(width, height, n, seed);
    }
}

#[test]
fn generate_equals_the_per_pixel_formula_on_long_pans() {
    // Hundreds of frames pan the world window far from the origin (the
    // pan velocity reaches 1.6 px per frame).
    for (width, height, n, seed) in [
        (16, 16, 400, 3),
        (32, 16, 250, 0x4652_4d4e),
        (48, 32, 150, 9),
    ] {
        assert_matches_reference(width, height, n, seed);
    }
}

#[test]
fn background_is_bit_equal_to_the_per_pixel_formula() {
    // Integer and fractional world coordinates, near the origin and after
    // long pans in both directions.
    let mut compared = 0;
    for base in [0.0, -37.25, 512.5, 1234.0625, -4000.75] {
        for j in 0..48 {
            for i in 0..64 {
                let wx = base + f64::from(i) * 1.5 + 0.3;
                let wy = base * 0.5 + f64::from(j) * 1.25 - 0.7;
                assert_eq!(
                    background_at(wx, wy).to_bits(),
                    background(wx, wy).to_bits(),
                    "background at ({wx}, {wy})"
                );
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 5 * 48 * 64);
}
