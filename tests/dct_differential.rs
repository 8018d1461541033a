//! Differential suite for the host DCT: `mpeg4::dct::{fdct, idct}`
//! against verbatim copies of the O(N⁴) per-output loops they replaced.
//!
//! The fast bodies interchange the loops so eight outputs accumulate side
//! by side, and `idct` skips zero coefficients. Neither may change a
//! single rounded output, so every family below requires bit-equal
//! results from both transforms:
//!
//! 1. residual blocks in −255..=255 (what `fdct` codes for P blocks);
//! 2. intra blocks in 0..=255;
//! 3. sparse dequantized coefficient blocks, about 1/8 non-zero with
//!    magnitudes up to ±1024 (what `idct` reconstructs);
//! 4. coefficient blocks that put `idct` outputs on `.5` rounding
//!    boundaries, where any change of association or a fused
//!    multiply-add flips the rounded result (random blocks almost never
//!    reach a boundary, so they barely test `idct`);
//! 5. all 511 constant blocks.
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
}

#[test]
fn every_constant_block_matches_the_reference() {
    for v in -255..=255 {
        assert_matches_reference("constant block", &[v; 64]);
    }
}
