//! Differential suite for the host DCT: `mpeg4::dct::{fdct, idct}`
//! against verbatim copies of the O(N⁴) per-output loops they replaced.
//!
//! The fast bodies change how the sums are computed, never what they
//! add. They interchange the loops so several outputs accumulate side by
//! side; `fdct` computes each first product `b[y][x]·c[u][x]` once and
//! multiplies it by every `c[v][y]`, which is the same product the
//! reference forms for each `v`, associated the same way; `idct` skips
//! zero coefficients, whose `±0.0` terms change no sum; both round half
//! away from zero by truncating to `i32` and comparing the exact
//! fractional part with `±0.5`, which equals `f64::round`. A precomputed
//! `c[u][x]·c[v][y]` table is not among them: `b·(c[u][x]·c[v][y])` is a
//! different rounding of the same real product and moves `.5` boundaries.
//! None of this may change a single rounded output, so every family below
//! requires bit-equal results from both transforms:
//!
//! 1. residual blocks in −255..=255 (what `fdct` codes for P blocks);
//! 2. intra blocks in 0..=255;
//! 3. sparse dequantized coefficient blocks, about 1/8 non-zero with
//!    magnitudes up to ±1024 (what `idct` reconstructs);
//! 4. coefficient blocks that put `idct` outputs on `.5` rounding
//!    boundaries, where any change of association or a fused
//!    multiply-add flips the rounded result (random blocks almost never
//!    reach a boundary, so they barely test `idct`);
//! 5. blocks whose pixel sum is ≡ 4 (mod 8), of both signs, which put the
//!    `fdct` DC coefficient next to a `.5` boundary on every case (random
//!    blocks do so one time in eight). The DC sum itself is an exact
//!    integer; `α(0)²` is `1/8 + 2⁻⁵⁵`, so DC lands within a few ulps
//!    beyond the tie and must round away from zero on both signs;
//! 6. all 511 constant blocks.
//!
//! Exact `.5` ties of the rounding are pinned by the unit test beside it
//! in `mpeg4::dct`.
//!
//! This file rides in the no-panic clippy gate: no `unwrap`/`expect`.

use std::f64::consts::PI;

use proptest::prelude::*;

use rvliw::mpeg4::dct::{fdct, idct};

/// The reference transforms, verbatim.
mod reference {
    use super::PI;

    pub const N: usize = 8;

    fn basis() -> [[f64; N]; N] {
        let mut c = [[0.0; N]; N];
        for (u, row) in c.iter_mut().enumerate() {
            for (x, v) in row.iter_mut().enumerate() {
                *v = ((2.0 * x as f64 + 1.0) * u as f64 * PI / 16.0).cos();
            }
        }
        c
    }

    fn alpha(u: usize) -> f64 {
        if u == 0 {
            (1.0f64 / 8.0).sqrt()
        } else {
            (2.0f64 / 8.0).sqrt()
        }
    }

    pub fn fdct(block: &[i32; 64]) -> [i32; 64] {
        let c = basis();
        let mut out = [0i32; 64];
        for v in 0..N {
            for u in 0..N {
                let mut s = 0.0;
                for y in 0..N {
                    for x in 0..N {
                        s += f64::from(block[y * N + x]) * c[u][x] * c[v][y];
                    }
                }
                out[v * N + u] = (alpha(u) * alpha(v) * s).round() as i32;
            }
        }
        out
    }

    pub fn idct(coefs: &[i32; 64]) -> [i32; 64] {
        let c = basis();
        let mut out = [0i32; 64];
        for y in 0..N {
            for x in 0..N {
                let mut s = 0.0;
                for v in 0..N {
                    for u in 0..N {
                        s += alpha(u) * alpha(v) * f64::from(coefs[v * N + u]) * c[u][x] * c[v][y];
                    }
                }
                out[y * N + x] = s.round() as i32;
            }
        }
        out
    }
}

fn block_of(values: Vec<i32>) -> [i32; 64] {
    let mut b = [0i32; 64];
    b.copy_from_slice(&values);
    b
}

fn arb_block(lo: i32, hi: i32) -> impl Strategy<Value = [i32; 64]> {
    proptest::collection::vec(lo..=hi, 64).prop_map(block_of)
}

/// About one coefficient in eight non-zero, magnitudes up to ±1024.
fn arb_sparse_coefs() -> impl Strategy<Value = [i32; 64]> {
    proptest::collection::vec(prop_oneof![7 => Just(0i32), 1 => -1024i32..=1024], 64)
        .prop_map(block_of)
}

/// Non-zero coefficients only at horizontal and vertical frequencies 0
/// and 4. There every basis factor `α(u)·c[u][x]` is `±1/(2√2)`, so each
/// exact output is a multiple of 1/8 and about a quarter of them sit on a
/// `.5` boundary.
fn arb_boundary_coefs() -> impl Strategy<Value = [i32; 64]> {
    proptest::collection::vec(-64i32..=64, 4).prop_map(|f| {
        let mut b = [0i32; 64];
        for (&i, &v) in [0, 4, 32, 36].iter().zip(&f) {
            b[i] = v;
        }
        b
    })
}

/// Pixels in 0..=255, negated when the flag is set, whose sum is ≡ 4
/// (mod 8): the last pixel is chosen to make it so.
fn arb_dc_boundary_block() -> impl Strategy<Value = [i32; 64]> {
    (
        proptest::collection::vec(0i32..=255, 63),
        0i32..=31,
        any::<bool>(),
    )
        .prop_map(|(mut pixels, high, negative)| {
            let partial: i32 = pixels.iter().sum();
            pixels.push((4 - partial).rem_euclid(8) + 8 * high);
            if negative {
                for p in &mut pixels {
                    *p = -*p;
                }
            }
            block_of(pixels)
        })
}

/// Asserts both transforms of `block` bit-equal to the reference.
fn assert_matches_reference(what: &str, block: &[i32; 64]) {
    assert_eq!(
        fdct(block),
        reference::fdct(block),
        "fdct of {what} {block:?}"
    );
    assert_eq!(
        idct(block),
        reference::idct(block),
        "idct of {what} {block:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn residual_blocks_match_the_reference(block in arb_block(-255, 255)) {
        assert_matches_reference("residual block", &block);
    }

    #[test]
    fn intra_blocks_match_the_reference(block in arb_block(0, 255)) {
        assert_matches_reference("intra block", &block);
    }

    #[test]
    fn sparse_coefficient_blocks_match_the_reference(block in arb_sparse_coefs()) {
        assert_matches_reference("sparse coefficient block", &block);
    }

    #[test]
    fn rounding_boundary_blocks_match_the_reference(block in arb_boundary_coefs()) {
        assert_matches_reference("rounding-boundary block", &block);
    }

    #[test]
    fn dc_boundary_blocks_match_the_reference(block in arb_dc_boundary_block()) {
        assert_matches_reference("DC-boundary block", &block);
        // Sum 8k + 4 gives DC just past k + 0.5, rounded to k + 1; the
        // negated block rounds to −(k + 1).
        let sum: i32 = block.iter().sum();
        prop_assert_eq!(sum.rem_euclid(8), 4);
        prop_assert_eq!(fdct(&block)[0], (sum + 4 * sum.signum()) / 8, "DC of sum {}", sum);
    }
}

#[test]
fn every_constant_block_matches_the_reference() {
    for v in -255..=255 {
        assert_matches_reference("constant block", &[v; 64]);
    }
}
