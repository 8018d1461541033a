//! Quality metrics for approximate motion estimation.
//!
//! An approximate SAD (or a cheaper search) picks motion vectors that an
//! exact full search might not. The two numbers reported here quantify
//! that gap against a *golden* encode of the same source frames — the
//! exhaustive full-search, exact-SAD encoder:
//!
//! * **SAD inflation** — the ratio of the exact SADs of the chosen motion
//!   field to the golden encode's, minus one. `0.0` means the approximate
//!   encoder picked an equally good motion field; `0.02` means its
//!   residuals carry 2 % more absolute error into the DCT stage.
//! * **PSNR delta** — golden mean luma PSNR minus the approximate
//!   encode's, in dB. Positive values are quality lost to approximation.
//!
//! Both encodes run over the *same* source frames; each motion field is
//! re-scored with the **exact** SAD against that encode's own
//! reconstructed reference frames, so the approximation error in the
//! metric itself is zero.

use crate::encoder::EncodeReport;
use crate::sad::{get_sad, interp_mode_of};
use crate::types::Frame;
use crate::MB;

/// Speed-vs-quality numbers for one approximate encode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityMetrics {
    /// Exact-SAD cost of the chosen motion field relative to the golden
    /// full-search encode: `cost / golden_cost - 1`. Exactly `0.0` when
    /// the motion fields cost the same.
    pub sad_inflation: f64,
    /// Golden mean luma PSNR minus this encode's, in dB (positive =
    /// quality lost).
    pub psnr_delta_db: f64,
}

impl QualityMetrics {
    /// Compares an (possibly approximate) encode of `frames` against the
    /// golden full-search encode of the same frames:
    /// [`QualityMetrics::from_scores`] of both encodes' [`EncodeScore`]s.
    #[must_use]
    pub fn compare(frames: &[Frame], approx: &EncodeReport, golden: &EncodeReport) -> Self {
        QualityMetrics::from_scores(
            EncodeScore::of(frames, approx),
            EncodeScore::of(frames, golden),
        )
    }

    /// The metrics of an encode scored `approx` against a golden encode
    /// of the same frames scored `golden`.
    #[must_use]
    pub fn from_scores(approx: EncodeScore, golden: EncodeScore) -> Self {
        let sad_inflation = if approx.cost == golden.cost {
            0.0 // identical cost is exactly zero inflation, no float noise
        } else if golden.cost == 0 {
            f64::INFINITY
        } else {
            approx.cost as f64 / golden.cost as f64 - 1.0
        };
        QualityMetrics {
            sad_inflation,
            psnr_delta_db: golden.mean_psnr_y - approx.mean_psnr_y,
        }
    }
}

/// The two numbers of one encode that [`QualityMetrics`] are computed
/// from. A golden reference kept as its score, not as its report, holds
/// two numbers instead of every reconstructed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeScore {
    /// [`motion_field_cost`] of the encode.
    pub cost: u64,
    /// [`EncodeReport::mean_psnr_y`] of the encode.
    pub mean_psnr_y: f64,
}

impl EncodeScore {
    /// Scores `report`, an encode of `frames`.
    #[must_use]
    pub fn of(frames: &[Frame], report: &EncodeReport) -> Self {
        EncodeScore {
            cost: motion_field_cost(frames, report),
            mean_psnr_y: report.mean_psnr_y(),
        }
    }
}

/// Sums the **exact** SAD of every chosen motion vector in `report`,
/// scored against the encode's own reconstructed reference frames (the
/// same references the encoder predicted from).
///
/// The mapping from a motion vector to a `GetSad` candidate mirrors the
/// search's own bookkeeping: the interpolation kind comes from the
/// half-sample flags and the candidate origin from the integer part.
#[must_use]
pub fn motion_field_cost(frames: &[Frame], report: &EncodeReport) -> u64 {
    let mut total = 0u64;
    for (t, fr) in report.frames.iter().enumerate() {
        if fr.motion.is_empty() {
            continue; // intra frame: no motion field
        }
        let (Some(cur), Some(prev)) = (frames.get(t), report.recon.get(t.wrapping_sub(1))) else {
            continue;
        };
        for mb in &fr.motion {
            let kind = interp_mode_of(mb.mv);
            let (ix, iy) = mb.mv.int_part();
            let cx = (mb.mbx * MB).wrapping_add_signed(isize::from(ix));
            let cy = (mb.mby * MB).wrapping_add_signed(isize::from(iy));
            total += u64::from(get_sad(
                &cur.y,
                mb.mbx * MB,
                mb.mby * MB,
                &prev.y,
                cx,
                cy,
                kind,
            ));
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use crate::me::{MotionSearch, SearchAlgorithm};
    use crate::sad::ApproxSad;
    use crate::synth::SyntheticSequence;

    fn encode_with(
        frames: &[Frame],
        algorithm: SearchAlgorithm,
        approx: ApproxSad,
    ) -> EncodeReport {
        Encoder::new(EncoderConfig {
            q: 10,
            search: MotionSearch {
                algorithm,
                half_sample: true,
                approx,
            },
        })
        .encode(frames)
    }

    fn golden(frames: &[Frame]) -> EncodeReport {
        encode_with(frames, SearchAlgorithm::Full { range: 8 }, ApproxSad::Exact)
    }

    #[test]
    fn exact_full_search_has_zero_inflation_and_zero_delta() {
        let frames = SyntheticSequence::new(64, 48, 3, 7).generate();
        let g = golden(&frames);
        let again = golden(&frames);
        let q = QualityMetrics::compare(&frames, &again, &g);
        assert_eq!(q.sad_inflation, 0.0);
        assert_eq!(q.psnr_delta_db, 0.0);
    }

    #[test]
    fn approx_modes_have_non_negative_inflation() {
        let frames = SyntheticSequence::new(64, 48, 3, 7).generate();
        let g = golden(&frames);
        for approx in [
            ApproxSad::SubsampledRows { step: 2 },
            ApproxSad::SubsampledRows { step: 4 },
            ApproxSad::ReducedPrecision { bits: 2 },
            ApproxSad::EarlyExit { threshold: 1024 },
        ] {
            let r = encode_with(&frames, SearchAlgorithm::Full { range: 8 }, approx);
            let q = QualityMetrics::compare(&frames, &r, &g);
            assert!(
                q.sad_inflation >= 0.0,
                "{approx:?}: inflation {}",
                q.sad_inflation
            );
        }
    }

    #[test]
    fn cheaper_searches_have_non_negative_inflation() {
        let frames = SyntheticSequence::new(64, 48, 3, 7).generate();
        let g = golden(&frames);
        for algorithm in [
            SearchAlgorithm::Diamond,
            SearchAlgorithm::ThreeStep,
            SearchAlgorithm::Spiral {
                range: 8,
                threshold: 256,
            },
        ] {
            let r = encode_with(&frames, algorithm, ApproxSad::Exact);
            let q = QualityMetrics::compare(&frames, &r, &g);
            assert!(
                q.sad_inflation >= 0.0,
                "{algorithm:?}: inflation {}",
                q.sad_inflation
            );
        }
    }
}
