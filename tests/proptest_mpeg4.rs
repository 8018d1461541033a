//! Property tests on the MPEG-4 substrate: transform/entropy round trips,
//! quantizer error bounds and motion-search optimality relations.

mod sad_reference;

use proptest::prelude::*;

use rvliw::mpeg4::bitstream::{BitReader, BitWriter};
use rvliw::mpeg4::dct::{fdct, idct};
use rvliw::mpeg4::me::{MotionSearch, SearchAlgorithm};
use rvliw::mpeg4::quant::{dequant_inter, quant_inter};
use rvliw::mpeg4::rlc::{read_block, write_block};
use rvliw::mpeg4::sad::{get_sad, InterpKind};
use rvliw::mpeg4::types::{Mv, Plane};
use rvliw::mpeg4::zigzag::{scan, unscan};

fn arb_block() -> impl Strategy<Value = [i32; 64]> {
    proptest::collection::vec(-255i32..=255, 64).prop_map(|v| {
        let mut b = [0i32; 64];
        b.copy_from_slice(&v);
        b
    })
}

fn arb_plane(w: usize, h: usize) -> impl Strategy<Value = Plane> {
    proptest::collection::vec(any::<u8>(), w * h).prop_map(move |data| Plane::from_data(w, h, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// fdct/idct round-trips within ±1 per coefficient (rounding only).
    #[test]
    fn dct_roundtrip(block in arb_block()) {
        let rec = idct(&fdct(&block));
        for i in 0..64 {
            prop_assert!((rec[i] - block[i]).abs() <= 1, "idx {}: {} vs {}", i, rec[i], block[i]);
        }
    }

    /// Zig-zag is a self-inverting permutation pair.
    #[test]
    fn zigzag_roundtrip(block in arb_block()) {
        prop_assert_eq!(unscan(&scan(&block)), block);
        prop_assert_eq!(scan(&unscan(&block)), block);
    }

    /// Quantizer reconstruction error is bounded by ~2.5·q per coefficient.
    #[test]
    fn quant_error_bounded(block in arb_block(), q in 1i32..=31) {
        let rec = dequant_inter(&quant_inter(&block, q), q);
        for i in 0..64 {
            prop_assert!(
                (rec[i] - block[i]).abs() <= 2 * q + q / 2 + 1,
                "idx {}: {} vs {} at q {}",
                i, rec[i], block[i], q
            );
        }
    }

    /// Run-level + exp-Golomb coding decodes to the original block.
    #[test]
    fn block_bitstream_roundtrip(blocks in proptest::collection::vec(arb_block(), 1..6)) {
        let mut w = BitWriter::new();
        for b in &blocks {
            write_block(&mut w, b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for b in &blocks {
            prop_assert_eq!(read_block(&mut r), Some(*b));
        }
    }

    /// Exp-Golomb signed/unsigned round trips for arbitrary interleavings.
    #[test]
    fn exp_golomb_roundtrip(values in proptest::collection::vec(any::<i16>(), 1..100)) {
        let mut w = BitWriter::new();
        for &v in &values {
            w.put_se(i32::from(v));
            w.put_ue(v.unsigned_abs().into());
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            prop_assert_eq!(r.get_se(), Some(i32::from(v)));
            prop_assert_eq!(r.get_ue(), Some(u32::from(v.unsigned_abs())));
        }
    }

    /// The full search is optimal: no other algorithm finds a strictly
    /// better integer SAD within the same range.
    #[test]
    fn full_search_is_optimal(prev in arb_plane(64, 48), cur in arb_plane(64, 48)) {
        let full = MotionSearch {
            algorithm: SearchAlgorithm::Full { range: 6 },
            half_sample: false,
            approx: rvliw::mpeg4::ApproxSad::Exact,
        };
        let diamond = MotionSearch {
            algorithm: SearchAlgorithm::Diamond,
            half_sample: false,
            approx: rvliw::mpeg4::ApproxSad::Exact,
        };
        let f = full.search_mb(&cur, &prev, 1, 1, Mv::default());
        let d = diamond.search_mb(&cur, &prev, 1, 1, Mv::default());
        // Diamond may wander beyond ±6, so only assert when its result is
        // within the full-search range.
        let (dx, dy) = d.mv.int_part();
        if dx.abs() <= 6 && dy.abs() <= 6 {
            prop_assert!(f.best_sad <= d.best_sad, "full {} > diamond {}", f.best_sad, d.best_sad);
        }
    }

    /// Every SAD recorded in a search trace matches the per-pixel
    /// `GetSad` definition.
    #[test]
    fn trace_is_self_consistent(prev in arb_plane(64, 48), cur in arb_plane(64, 48)) {
        let ms = MotionSearch::default();
        let m = ms.search_mb(&cur, &prev, 1, 1, Mv::default());
        for c in &m.calls {
            let reference = sad_reference::get_sad_approx(
                &cur, 16, 16, &prev, usize::from(c.cx), usize::from(c.cy), c.kind, ms.approx,
            );
            prop_assert_eq!(c.sad, reference);
        }
        // The reported best is the minimum of the trace.
        let min = m.calls.iter().map(|c| c.sad).min().unwrap();
        prop_assert_eq!(m.best_sad, min);
    }

    /// Half-sample refinement never worsens the SAD.
    #[test]
    fn half_sample_never_hurts(prev in arb_plane(64, 48), cur in arb_plane(64, 48)) {
        let int_only = MotionSearch {
            algorithm: SearchAlgorithm::Diamond,
            half_sample: false,
            approx: rvliw::mpeg4::ApproxSad::Exact,
        };
        let with_half = MotionSearch {
            algorithm: SearchAlgorithm::Diamond,
            half_sample: true,
            approx: rvliw::mpeg4::ApproxSad::Exact,
        };
        let a = int_only.search_mb(&cur, &prev, 1, 1, Mv::default());
        let b = with_half.search_mb(&cur, &prev, 1, 1, Mv::default());
        prop_assert!(b.best_sad <= a.best_sad);
    }

    /// SAD is a metric-like form: zero iff the (interpolated) blocks match,
    /// and symmetric under swapping for integer candidates.
    #[test]
    fn sad_zero_on_self(p in arb_plane(64, 48)) {
        prop_assert_eq!(get_sad(&p, 16, 16, &p, 16, 16, InterpKind::None), 0);
    }
}
