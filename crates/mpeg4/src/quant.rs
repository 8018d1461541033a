//! H.263-style quantization (MPEG-4 simple profile, second quantization
//! method), with the case study's fixed quantizer Q = 10.

/// Quantizes an intra block: DC by 8, AC by `2·q` (plain division).
///
/// # Panics
///
/// Panics if `q == 0`.
#[must_use]
pub fn quant_intra(coefs: &[i32; 64], q: i32) -> [i32; 64] {
    assert!(q > 0, "quantizer must be positive");
    let mut out = [0i32; 64];
    out[0] = (coefs[0] + 4).div_euclid(8); // DC, rounded
    for i in 1..64 {
        out[i] = coefs[i] / (2 * q);
    }
    out
}

/// Dequantizes an intra block.
///
/// # Panics
///
/// Panics if `q == 0`.
#[must_use]
pub fn dequant_intra(levels: &[i32; 64], q: i32) -> [i32; 64] {
    assert!(q > 0, "quantizer must be positive");
    let mut out = [0i32; 64];
    out[0] = levels[0] * 8;
    for i in 1..64 {
        let l = levels[i];
        out[i] = if l == 0 {
            0
        } else if q % 2 == 1 {
            q * (2 * l.abs() + 1) * l.signum()
        } else {
            (q * (2 * l.abs() + 1) - 1) * l.signum()
        };
    }
    out
}

/// Quantizes an inter (residual) block with the H.263 dead zone:
/// `level = (|c| − q/2) / (2q)`, signed.
///
/// # Panics
///
/// Panics if `q == 0`.
#[must_use]
pub fn quant_inter(coefs: &[i32; 64], q: i32) -> [i32; 64] {
    assert!(q > 0, "quantizer must be positive");
    let mut out = [0i32; 64];
    for i in 0..64 {
        let c = coefs[i];
        let m = c.abs() - q / 2;
        // `m` is at least `−q/2`, so below `2q` the quotient truncates to
        // 0: most residual coefficients skip the division.
        out[i] = if m < 2 * q {
            0
        } else {
            m / (2 * q) * c.signum()
        };
    }
    out
}

/// Dequantizes an inter block (same reconstruction rule as intra AC).
///
/// # Panics
///
/// Panics if `q == 0`.
#[must_use]
pub fn dequant_inter(levels: &[i32; 64], q: i32) -> [i32; 64] {
    assert!(q > 0, "quantizer must be positive");
    let mut out = [0i32; 64];
    for i in 0..64 {
        let l = levels[i];
        out[i] = if l == 0 {
            0
        } else if q % 2 == 1 {
            q * (2 * l.abs() + 1) * l.signum()
        } else {
            (q * (2 * l.abs() + 1) - 1) * l.signum()
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quant_inter_equals_the_dead_zone_formula() {
        for q in 1..=31 {
            for start in (-4096..4096).step_by(64) {
                let mut coefs = [0i32; 64];
                for (i, c) in coefs.iter_mut().enumerate() {
                    *c = start + i as i32;
                }
                let levels = quant_inter(&coefs, q);
                for (&c, &l) in coefs.iter().zip(&levels) {
                    assert_eq!(l, ((c.abs() - q / 2) / (2 * q)) * c.signum(), "q {q} c {c}");
                }
            }
        }
    }

    #[test]
    fn zero_stays_zero() {
        let z = [0i32; 64];
        assert_eq!(quant_inter(&z, 10), z);
        assert_eq!(dequant_inter(&z, 10), z);
    }

    #[test]
    fn small_residuals_die_in_the_dead_zone() {
        let mut c = [0i32; 64];
        c[5] = 9; // |9| - 5 = 4, / 20 = 0
        c[6] = -9;
        assert_eq!(quant_inter(&c, 10), [0i32; 64]);
    }

    #[test]
    fn reconstruction_error_bounded_by_quantizer() {
        let q = 10;
        for &val in &[-400, -123, -21, 25, 150, 380] {
            let mut c = [0i32; 64];
            c[3] = val;
            let rec = dequant_inter(&quant_inter(&c, q), q);
            let err = (rec[3] - val).abs();
            assert!(err <= 2 * q + q / 2, "val {val}: err {err}");
        }
    }

    #[test]
    fn intra_dc_reconstruction() {
        let mut c = [0i32; 64];
        c[0] = 8 * 96; // flat-96 block DC
        let levels = quant_intra(&c, 10);
        assert_eq!(levels[0], 96);
        let rec = dequant_intra(&levels, 10);
        assert_eq!(rec[0], 8 * 96);
    }

    #[test]
    fn sign_symmetry() {
        let q = 10;
        let mut c = [0i32; 64];
        c[7] = 300;
        let mut cn = [0i32; 64];
        cn[7] = -300;
        assert_eq!(quant_inter(&c, q)[7], -quant_inter(&cn, q)[7]);
        let r = dequant_inter(&quant_inter(&c, q), q)[7];
        let rn = dequant_inter(&quant_inter(&cn, q), q)[7];
        assert_eq!(r, -rn);
    }

    #[test]
    fn even_quantizer_reconstruction_is_odd() {
        // H.263: reconstruction magnitudes are odd multiples of q (odd q)
        // or one less (even q) — checks the parity rule.
        let mut c = [0i32; 64];
        c[2] = 100;
        let r_odd = dequant_inter(&quant_inter(&c, 9), 9)[2];
        assert_eq!(r_odd % 2, (9 * (2 * (100 / 18) + 1)) % 2);
        let r_even = dequant_inter(&quant_inter(&c, 10), 10)[2];
        assert_eq!(r_even % 2, 1); // 10*(2l+1)-1 is odd
    }
}
