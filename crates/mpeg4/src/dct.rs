//! 8×8 forward and inverse DCT (type-II / type-III), double-precision
//! reference implementation with rounding to integer coefficients.
//!
//! The definitions are the direct O(N⁴) sums: every output adds 64
//! products in one fixed order, each product associated left to right.
//! [`fdct`] and [`idct`] evaluate exactly those sums, faster, and every
//! rewrite below keeps each rounded output bit-identical:
//!
//! - **Loop interchange.** Several outputs accumulate side by side in
//!   arrays of `f64` lanes. That only changes which sum a product goes to
//!   next, never the order of the products inside one sum.
//! - **One table.** The cosine basis, its transpose and the `α(u)·α(v)`
//!   products are computed once per process. Each entry is the same value
//!   the per-call expression gave.
//! - **Reused first products.** A forward term is `(b[y][x]·c[u][x])·c[v][y]`:
//!   its first product does not depend on `v`. [`fdct`] computes those 512
//!   products once per block and multiplies each by `c[v][y]` in turn. The
//!   association is unchanged, so every term, and every sum, is the same.
//! - **Integer rounding.** Outputs round half away from zero through
//!   truncation to `i32` and a comparison of the exact fractional part (see
//!   `round_half_away`); this equals `f64::round` for every input the
//!   transforms produce, without a soft-float library call.
//!
//! Anything that changes a sum's rounding is ruled out: a separable
//! row/column form, fused multiply-add, reassociation, or a precomputed
//! `c[u][x]·c[v][y]` table. The last computes `b·(c[u][x]·c[v][y])`, a
//! different rounding of the same real product. Each of those moves
//! coefficients that sit on a `.5` boundary.

use std::f64::consts::PI;
use std::sync::OnceLock;

/// Block edge.
pub const N: usize = 8;

/// The transforms' constants, built once per process.
struct Tables {
    /// Cosine basis `c[u][x] = cos((2x+1)uπ/16)`.
    c: [[f64; N]; N],
    /// Its transpose, `ct[x][u] = c[u][x]`.
    ct: [[f64; N]; N],
    /// `aa[v][u] = α(u)·α(v)`.
    aa: [[f64; N]; N],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Tables {
            c: [[0.0; N]; N],
            ct: [[0.0; N]; N],
            aa: [[0.0; N]; N],
        };
        for u in 0..N {
            for x in 0..N {
                let c = ((2.0 * x as f64 + 1.0) * u as f64 * PI / 16.0).cos();
                t.c[u][x] = c;
                t.ct[x][u] = c;
            }
        }
        for v in 0..N {
            for u in 0..N {
                t.aa[v][u] = alpha(u) * alpha(v);
            }
        }
        t
    })
}

fn alpha(u: usize) -> f64 {
    if u == 0 {
        (1.0f64 / 8.0).sqrt()
    } else {
        (2.0f64 / 8.0).sqrt()
    }
}

/// `x` rounded half away from zero, as `f64::round(x) as i32`.
///
/// Truncation gives the integer part `t` and leaves the fractional part
/// `x − t` exactly (it is a multiple of `x`'s ulp below 1). Comparing that
/// part with `±0.5` then decides the rounding exactly. That holds for
/// `|x| < 2³¹ − 1`, where transform outputs of pixel and dequantized blocks
/// stay; anything else (a crafted bitstream's coefficients, NaN) takes
/// `f64::round` and its saturating cast.
#[inline]
fn round_half_away(x: f64) -> i32 {
    if x.abs() < 2_147_483_647.0 {
        let t = x as i32;
        let f = x - f64::from(t);
        t + i32::from(f >= 0.5) - i32::from(f <= -0.5)
    } else {
        x.round() as i32
    }
}

/// Forward 8×8 DCT of a residual block (values typically in −255..=255).
/// Coefficients are rounded to the nearest integer.
///
/// Coefficient `(u, v)` is `α(u)·α(v)·s`, where `s` sums
/// `(b[y][x]·c[u][x])·c[v][y]` over `y`, then `x`, starting from `+0.0`.
/// The first products `b[y][x]·c[u][x]` are computed once per pixel; two
/// `v` rows of eight `u` sums then accumulate side by side.
#[must_use]
pub fn fdct(block: &[i32; 64]) -> [i32; 64] {
    let t = tables();
    let mut first = [[0.0f64; N]; 64];
    for (i, f) in first.iter_mut().enumerate() {
        let b = f64::from(block[i]);
        for (fu, &c) in f.iter_mut().zip(&t.ct[i % N]) {
            *fu = b * c;
        }
    }
    let mut out = [0i32; 64];
    for v in (0..N).step_by(2) {
        let (mut s0, mut s1) = ([0.0f64; N], [0.0f64; N]);
        for (y, row) in first.chunks_exact(N).enumerate() {
            let (c0, c1) = (t.c[v][y], t.c[v + 1][y]);
            for f in row {
                for u in 0..N {
                    s0[u] += f[u] * c0;
                    s1[u] += f[u] * c1;
                }
            }
        }
        for u in 0..N {
            out[v * N + u] = round_half_away(t.aa[v][u] * s0[u]);
            out[(v + 1) * N + u] = round_half_away(t.aa[v + 1][u] * s1[u]);
        }
    }
    out
}

/// Inverse 8×8 DCT, rounded to the nearest integer.
///
/// Pixel `(x, y)` sums `((α(u)·α(v)·F[v][u])·c[u][x])·c[v][y]` over `v`,
/// then `u`, starting from `+0.0`. The loops run coefficient-outer, so each
/// coefficient updates the eight `x` lanes of every row in turn.
///
/// Zero coefficients are skipped, which is exact. Their terms are `±0.0`,
/// and adding `±0.0` leaves any sum that is not `−0.0` unchanged. A sum
/// that starts at `+0.0` never becomes `−0.0` under round-to-nearest.
/// Dequantized blocks are mostly zero, so the skip does most of the work;
/// an all-zero block, most inter blocks, returns zeros at once.
#[must_use]
pub fn idct(coefs: &[i32; 64]) -> [i32; 64] {
    if coefs.iter().all(|&c| c == 0) {
        return [0; 64];
    }
    let t = tables();
    let mut s = [[0.0f64; N]; N];
    for v in 0..N {
        for u in 0..N {
            let coef = coefs[v * N + u];
            if coef == 0 {
                continue;
            }
            let k = t.aa[v][u] * f64::from(coef);
            let mut p = [0.0; N];
            for (p, &c) in p.iter_mut().zip(&t.c[u]) {
                *p = k * c;
            }
            for (row, &c) in s.iter_mut().zip(&t.c[v]) {
                for x in 0..N {
                    row[x] += p[x] * c;
                }
            }
        }
    }
    let mut out = [0i32; 64];
    for (o, &v) in out.iter_mut().zip(s.iter().flatten()) {
        *o = round_half_away(v);
    }
    out
}

/// Fixed-point DCT constants: `round(α(u) · cos((2x+1)uπ/16) · 2^11)`.
///
/// This is the table an integer implementation (e.g. the VLIW kernel in
/// `rvliw-kernels`) uses with 16×32 multiplies; [`fdct_fixed`] is the exact
/// bit-true reference for it.
#[must_use]
pub fn fixed_coeffs() -> [[i32; N]; N] {
    let c = &tables().c;
    let mut out = [[0i32; N]; N];
    for u in 0..N {
        for x in 0..N {
            out[u][x] = round_half_away(alpha(u) * c[u][x] * 2048.0);
        }
    }
    out
}

/// One fixed-point 1-D pass: `out[u] = (Σ_x coeff[u][x]·input[x] + 2^10) >> 11`.
fn fixed_pass(input: &[i32; N], coeffs: &[[i32; N]; N]) -> [i32; N] {
    let mut out = [0i32; N];
    for (u, o) in out.iter_mut().enumerate() {
        let mut s = 0i32;
        for x in 0..N {
            s += coeffs[u][x] * input[x];
        }
        *o = (s + 1024) >> 11;
    }
    out
}

/// Bit-true fixed-point forward DCT (row pass then column pass, 11-bit
/// scaled constants, round-to-nearest rescale after each pass).
///
/// Differs from the double-precision [`fdct`] by at most a couple of units
/// per coefficient; it exists as the exact semantics the VLIW/RFU DCT
/// kernels implement, so they can be verified bit-for-bit.
#[must_use]
pub fn fdct_fixed(block: &[i32; 64]) -> [i32; 64] {
    let coeffs = fixed_coeffs();
    let mut mid = [0i32; 64];
    // Row pass.
    for y in 0..N {
        let mut row = [0i32; N];
        row.copy_from_slice(&block[y * N..(y + 1) * N]);
        let t = fixed_pass(&row, &coeffs);
        mid[y * N..(y + 1) * N].copy_from_slice(&t);
    }
    // Column pass.
    let mut out = [0i32; 64];
    for u in 0..N {
        let mut col = [0i32; N];
        for y in 0..N {
            col[y] = mid[y * N + u];
        }
        let t = fixed_pass(&col, &coeffs);
        for v in 0..N {
            out[v * N + u] = t[v];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block(seed: i32) -> [i32; 64] {
        let mut b = [0i32; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = ((i as i32 * 37 + seed * 11) % 255) - 127;
        }
        b
    }

    #[test]
    fn round_half_away_equals_f64_round() {
        let mut xs = vec![0.0, -0.0, f64::MIN_POSITIVE, -f64::MIN_POSITIVE];
        // Subnormals: the smallest, the largest and one in between.
        for bits in [1u64, 0x000f_ffff_ffff_ffff, 0x0000_0123_4567_89ab] {
            let x = f64::from_bits(bits);
            xs.extend([x, -x]);
        }
        for k in (0..=5000).chain([65_535, 1 << 20, (1 << 30) + 7, i32::MAX as u64 - 1]) {
            let tie = k as f64 + 0.5;
            for x in [tie, tie.next_down(), tie.next_up(), k as f64] {
                xs.extend([x, -x]);
            }
        }
        let edge = 2_147_483_648.0f64;
        for x in [
            edge,
            edge.next_down(),
            edge - 1.0,
            (edge - 1.0).next_down(),
            1e300,
            f64::INFINITY,
            f64::NAN,
        ] {
            xs.extend([x, -x]);
        }
        for x in xs {
            assert_eq!(round_half_away(x), x.round() as i32, "{x:e}");
        }
        assert_eq!(round_half_away(-0.5), -1);
        assert_eq!(round_half_away(0.5), 1);
        assert_eq!(round_half_away((-0.5f64).next_up()), 0);
    }

    #[test]
    fn dc_of_flat_block() {
        let block = [96i32; 64];
        let coefs = fdct(&block);
        // DC = 8 * mean = 8 * 96.
        assert_eq!(coefs[0], 8 * 96);
        assert!(coefs[1..].iter().all(|&c| c == 0), "AC of a flat block");
    }

    #[test]
    fn roundtrip_within_rounding_error() {
        for seed in 0..5 {
            let block = sample_block(seed);
            let rec = idct(&fdct(&block));
            for i in 0..64 {
                assert!(
                    (rec[i] - block[i]).abs() <= 1,
                    "seed {seed} idx {i}: {} vs {}",
                    rec[i],
                    block[i]
                );
            }
        }
    }

    #[test]
    fn linearity_of_fdct() {
        let a = sample_block(1);
        let b = sample_block(2);
        let mut sum = [0i32; 64];
        for i in 0..64 {
            sum[i] = a[i] + b[i];
        }
        let ca = fdct(&a);
        let cb = fdct(&b);
        let cs = fdct(&sum);
        for i in 0..64 {
            assert!(
                (cs[i] - ca[i] - cb[i]).abs() <= 2,
                "idx {i}: {} vs {}",
                cs[i],
                ca[i] + cb[i]
            );
        }
    }

    #[test]
    fn fixed_dct_tracks_the_float_reference() {
        for seed in 0..6 {
            let block = sample_block(seed);
            let float = fdct(&block);
            let fixed = fdct_fixed(&block);
            for i in 0..64 {
                assert!(
                    (float[i] - fixed[i]).abs() <= 3,
                    "seed {seed} idx {i}: float {} fixed {}",
                    float[i],
                    fixed[i]
                );
            }
        }
    }

    #[test]
    fn fixed_dct_dc_of_flat_block() {
        let block = [100i32; 64];
        let out = fdct_fixed(&block);
        assert!((out[0] - 800).abs() <= 2, "DC {}", out[0]);
    }

    #[test]
    fn fixed_coeffs_are_11_bit_scaled() {
        let c = fixed_coeffs();
        // α(0)·cos(0)·2048 = 2048/√8 ≈ 724.
        assert_eq!(c[0][0], 724);
        for row in &c {
            for &v in row {
                assert!(v.abs() <= 1024, "coefficient {v} exceeds 2^10 magnitude");
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let block = sample_block(3);
        let coefs = fdct(&block);
        let es: i64 = block.iter().map(|&v| i64::from(v) * i64::from(v)).sum();
        let ec: i64 = coefs.iter().map(|&v| i64::from(v) * i64::from(v)).sum();
        let ratio = ec as f64 / es as f64;
        assert!((ratio - 1.0).abs() < 0.01, "energy ratio {ratio}");
    }
}
