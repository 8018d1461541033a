//! The I/P encoding loop with in-loop reconstruction.
//!
//! First frame intra, the rest inter (simple profile, no B-frames), fixed
//! quantizer. Motion is searched in the *reconstructed* previous frame —
//! exactly what the reference encoder does, and what makes the `GetSad`
//! trace (and hence the simulated workload) faithful.

use crate::bitstream::BitWriter;
use crate::dct::{fdct, idct};
use crate::mc::{chroma_mv, predict_mb, reconstruct_mb};
use crate::me::{MbMotion, MotionSearch, SadCall};
use crate::psnr::psnr;
use crate::quant::{dequant_inter, dequant_intra, quant_inter, quant_intra};
use crate::rlc::write_block;
use crate::types::{Frame, Mv, Plane};
use crate::zigzag::{scan, unscan};
use crate::MB;

/// Encoder parameters (the case study: Q = 10, diamond + half-sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Fixed quantization parameter.
    pub q: i32,
    /// The motion search.
    pub search: MotionSearch,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            q: 10,
            search: MotionSearch::default(),
        }
    }
}

/// Frame coding type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Intra coded.
    I,
    /// Predicted from the previous reconstructed frame.
    P,
}

/// The motion-estimation trace of one macroblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MbTrace {
    /// Macroblock x index.
    pub mbx: usize,
    /// Macroblock y index.
    pub mby: usize,
    /// The chosen vector.
    pub mv: Mv,
    /// Every `GetSad` call the search made.
    pub calls: Vec<SadCall>,
}

/// Per-frame encoding result.
#[derive(Debug, Clone)]
pub struct FrameReport {
    /// I or P.
    pub frame_type: FrameType,
    /// Bits produced for this frame.
    pub bits: usize,
    /// Luma PSNR of the reconstruction against the source.
    pub psnr_y: f64,
    /// Motion traces (empty for I frames).
    pub motion: Vec<MbTrace>,
}

/// Whole-sequence encoding result.
#[derive(Debug, Clone)]
pub struct EncodeReport {
    /// Per-frame reports.
    pub frames: Vec<FrameReport>,
    /// Reconstructed frames (the decoder-side pictures).
    pub recon: Vec<Frame>,
    /// Total bitstream bits.
    pub total_bits: usize,
}

impl EncodeReport {
    /// Mean luma PSNR over all frames.
    #[must_use]
    pub fn mean_psnr_y(&self) -> f64 {
        let finite: Vec<f64> = self
            .frames
            .iter()
            .map(|f| f.psnr_y)
            .filter(|p| p.is_finite())
            .collect();
        if finite.is_empty() {
            return f64::INFINITY;
        }
        finite.iter().sum::<f64>() / finite.len() as f64
    }

    /// All `GetSad` calls of the whole sequence, in encoding order.
    pub fn all_sad_calls(&self) -> impl Iterator<Item = (&MbTrace, &SadCall)> {
        self.frames
            .iter()
            .flat_map(|f| f.motion.iter())
            .flat_map(|t| t.calls.iter().map(move |c| (t, c)))
    }

    /// Total number of `GetSad` calls.
    #[must_use]
    pub fn num_sad_calls(&self) -> usize {
        self.all_sad_calls().count()
    }

    /// Fraction of `GetSad` calls per interpolation kind
    /// `(none, h, v, diag)`.
    #[must_use]
    pub fn interp_shares(&self) -> (f64, f64, f64, f64) {
        let mut counts = [0usize; 4];
        let mut total = 0usize;
        for (_, c) in self.all_sad_calls() {
            total += 1;
            counts[c.kind.code() as usize] += 1;
        }
        if total == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let f = |i: usize| counts[i] as f64 / total as f64;
        (f(0), f(1), f(2), f(3))
    }
}

/// The encoder.
///
/// ```
/// use mpeg4_enc::{Encoder, SyntheticSequence};
///
/// let frames = SyntheticSequence::new(64, 48, 2, 7).generate();
/// let report = Encoder::default().encode(&frames);
/// assert!(report.mean_psnr_y() > 30.0);
/// assert!(report.num_sad_calls() > 0); // the motion-estimation trace
/// ```
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    /// Its configuration.
    pub config: EncoderConfig,
}

impl Encoder {
    /// An encoder with the given configuration.
    #[must_use]
    pub fn new(config: EncoderConfig) -> Self {
        Encoder { config }
    }

    /// Encodes a sequence: first frame intra, the rest P.
    ///
    /// # Panics
    ///
    /// Panics on an empty input.
    #[must_use]
    pub fn encode(&self, frames: &[Frame]) -> EncodeReport {
        self.encode_with_streams(frames).0
    }

    /// Encodes a sequence and also returns the per-frame byte streams
    /// (each zero-padded to a byte boundary), for the decoder round trip.
    ///
    /// # Panics
    ///
    /// Panics on an empty input.
    #[must_use]
    pub fn encode_with_streams(&self, frames: &[Frame]) -> (EncodeReport, Vec<Vec<u8>>) {
        assert!(!frames.is_empty(), "cannot encode an empty sequence");
        let mut reports = Vec::with_capacity(frames.len());
        let mut recon: Vec<Frame> = Vec::with_capacity(frames.len());
        let mut streams = Vec::with_capacity(frames.len());
        for (t, frame) in frames.iter().enumerate() {
            let (report_frame, bytes) = if t == 0 {
                let (rec, rep, bytes) = self.encode_intra(frame);
                recon.push(rec);
                (rep, bytes)
            } else {
                let prev = &recon[t - 1];
                let (rec, rep, bytes) = self.encode_inter(frame, prev);
                recon.push(rec);
                (rep, bytes)
            };
            reports.push(report_frame);
            streams.push(bytes);
        }
        let total_bits = reports.iter().map(|r| r.bits).sum();
        (
            EncodeReport {
                frames: reports,
                recon,
                total_bits,
            },
            streams,
        )
    }

    fn encode_intra(&self, frame: &Frame) -> (Frame, FrameReport, Vec<u8>) {
        let q = self.config.q;
        let mut rec = Frame::new(frame.width(), frame.height());
        let mut w = BitWriter::new();
        for (src, dst) in [
            (&frame.y, &mut rec.y),
            (&frame.u, &mut rec.u),
            (&frame.v, &mut rec.v),
        ] {
            for by in 0..src.height() / 8 {
                for bx in 0..src.width() / 8 {
                    let block = get_block8(src, bx * 8, by * 8);
                    let levels = quant_intra(&fdct(&block), q);
                    write_block(&mut w, &scan(&levels));
                    let rec_block = idct(&dequant_intra(&unscan(&scan(&levels)), q));
                    put_block8(dst, bx * 8, by * 8, &rec_block);
                }
            }
        }
        let bits = w.bit_len();
        let psnr_y = psnr(&frame.y, &rec.y);
        (
            rec,
            FrameReport {
                frame_type: FrameType::I,
                bits,
                psnr_y,
                motion: Vec::new(),
            },
            w.into_bytes(),
        )
    }

    fn encode_inter(&self, frame: &Frame, prev: &Frame) -> (Frame, FrameReport, Vec<u8>) {
        let q = self.config.q;
        let mbs_x = frame.y.mbs_x();
        let mbs_y = frame.y.mbs_y();
        let mut rec = Frame::new(frame.width(), frame.height());
        let mut w = BitWriter::new();
        let mut motion = Vec::with_capacity(mbs_x * mbs_y);
        let mut mvs: Vec<Mv> = vec![Mv::default(); mbs_x * mbs_y];
        for mby in 0..mbs_y {
            for mbx in 0..mbs_x {
                let pred_mv = median_predictor(&mvs, mbs_x, mbx, mby);
                let m: MbMotion = self
                    .config
                    .search
                    .search_mb(&frame.y, &prev.y, mbx, mby, pred_mv);
                mvs[mby * mbs_x + mbx] = m.mv;
                // Differential MV coding against the median predictor.
                w.put_se(i32::from(m.mv.x) - i32::from(pred_mv.x));
                w.put_se(i32::from(m.mv.y) - i32::from(pred_mv.y));
                // Luma prediction + residual coding.
                let pred = predict_mb(&prev.y, mbx, mby, m.mv);
                let mut residual16 = [0i32; MB * MB];
                for y in 0..MB {
                    for x in 0..MB {
                        residual16[y * MB + x] = i32::from(frame.y.at(mbx * MB + x, mby * MB + y))
                            - i32::from(pred[y * MB + x]);
                    }
                }
                let mut rec_res16 = [0i32; MB * MB];
                for sub in 0..4 {
                    let (ox, oy) = ((sub % 2) * 8, (sub / 2) * 8);
                    let mut block = [0i32; 64];
                    for y in 0..8 {
                        for x in 0..8 {
                            block[y * 8 + x] = residual16[(oy + y) * MB + ox + x];
                        }
                    }
                    let levels = quant_inter(&fdct(&block), q);
                    write_block(&mut w, &scan(&levels));
                    let rec_block = idct(&dequant_inter(&levels, q));
                    for y in 0..8 {
                        for x in 0..8 {
                            rec_res16[(oy + y) * MB + ox + x] = rec_block[y * 8 + x];
                        }
                    }
                }
                reconstruct_mb(&mut rec.y, mbx, mby, &pred, &rec_res16);
                // Chroma: one 8×8 block per component.
                let cmv = chroma_mv(m.mv);
                for (src, prev_p, dst) in [
                    (&frame.u, &prev.u, &mut rec.u),
                    (&frame.v, &prev.v, &mut rec.v),
                ] {
                    code_chroma_block(&mut w, src, prev_p, dst, mbx, mby, cmv, q);
                }
                motion.push(MbTrace {
                    mbx,
                    mby,
                    mv: m.mv,
                    calls: m.calls,
                });
            }
        }
        let bits = w.bit_len();
        let psnr_y = psnr(&frame.y, &rec.y);
        (
            rec,
            FrameReport {
                frame_type: FrameType::P,
                bits,
                psnr_y,
                motion,
            },
            w.into_bytes(),
        )
    }
}

/// Median MV predictor over the left, top and top-right neighbours.
pub(crate) fn median_predictor(mvs: &[Mv], mbs_x: usize, mbx: usize, mby: usize) -> Mv {
    let get = |dx: isize, dy: isize| -> Mv {
        let x = mbx as isize + dx;
        let y = mby as isize + dy;
        if x < 0 || y < 0 || x >= mbs_x as isize {
            Mv::default()
        } else {
            let idx = y as usize * mbs_x + x as usize;
            // Only already-encoded macroblocks (raster order).
            if y as usize == mby && x as usize >= mbx {
                Mv::default()
            } else {
                mvs[idx]
            }
        }
    };
    let (a, b, c) = (get(-1, 0), get(0, -1), get(1, -1));
    let med = |p: i16, q: i16, r: i16| -> i16 { p.max(q.min(r)).min(q.max(r)) };
    Mv::new(med(a.x, b.x, c.x), med(a.y, b.y, c.y))
}

/// Extracts an 8×8 block as i32.
fn get_block8(p: &Plane, x: usize, y: usize) -> [i32; 64] {
    let mut b = [0i32; 64];
    for j in 0..8 {
        for i in 0..8 {
            b[j * 8 + i] = i32::from(p.at(x + i, y + j));
        }
    }
    b
}

/// Writes an 8×8 reconstruction (clamped) into a plane.
fn put_block8(p: &mut Plane, x: usize, y: usize, b: &[i32; 64]) {
    for j in 0..8 {
        for i in 0..8 {
            p.set(x + i, y + j, b[j * 8 + i].clamp(0, 255) as u8);
        }
    }
}

/// Codes one chroma 8×8 block of macroblock `(mbx, mby)`.
#[allow(clippy::too_many_arguments)]
fn code_chroma_block(
    w: &mut BitWriter,
    src: &Plane,
    prev: &Plane,
    dst: &mut Plane,
    mbx: usize,
    mby: usize,
    cmv: Mv,
    q: i32,
) {
    let bx = mbx * 8;
    let by = mby * 8;
    let kind = crate::sad::interp_mode_of(cmv);
    let (ix, iy) = cmv.int_part();
    // Clamp the chroma MC block into the plane (border macroblocks with
    // outward vectors).
    let cx = (bx as isize + isize::from(ix))
        .clamp(0, (prev.width() - kind.cols().min(prev.width())) as isize) as usize;
    let cy = (by as isize + isize::from(iy))
        .clamp(0, (prev.height() - kind.rows().min(prev.height())) as isize) as usize;
    let mut pred = [0u8; 64];
    for y in 0..8 {
        for x in 0..8 {
            pred[y * 8 + x] = crate::sad::pred_pixel(prev, cx + x, cy + y, kind);
        }
    }
    let mut residual = [0i32; 64];
    for y in 0..8 {
        for x in 0..8 {
            residual[y * 8 + x] = i32::from(src.at(bx + x, by + y)) - i32::from(pred[y * 8 + x]);
        }
    }
    let levels = quant_inter(&fdct(&residual), q);
    write_block(w, &scan(&levels));
    let rec_block = idct(&dequant_inter(&levels, q));
    for y in 0..8 {
        for x in 0..8 {
            let v = i32::from(pred[y * 8 + x]) + rec_block[y * 8 + x];
            dst.set(bx + x, by + y, v.clamp(0, 255) as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SyntheticSequence;

    fn small_seq(frames: usize) -> Vec<Frame> {
        SyntheticSequence::new(64, 48, frames, 11).generate()
    }

    #[test]
    fn first_frame_is_intra_rest_p() {
        let rep = Encoder::default().encode(&small_seq(3));
        assert_eq!(rep.frames[0].frame_type, FrameType::I);
        assert_eq!(rep.frames[1].frame_type, FrameType::P);
        assert_eq!(rep.frames[2].frame_type, FrameType::P);
        assert!(rep.frames[0].motion.is_empty());
        assert_eq!(rep.frames[1].motion.len(), 4 * 3);
    }

    #[test]
    fn reconstruction_quality_is_reasonable() {
        let rep = Encoder::default().encode(&small_seq(3));
        for (i, f) in rep.frames.iter().enumerate() {
            assert!(f.psnr_y > 28.0, "frame {i}: PSNR {:.2} dB", f.psnr_y);
        }
    }

    #[test]
    fn bits_are_produced_and_summed() {
        let rep = Encoder::default().encode(&small_seq(2));
        assert!(rep.frames[0].bits > 0);
        assert!(rep.frames[1].bits > 0);
        assert_eq!(rep.total_bits, rep.frames[0].bits + rep.frames[1].bits);
        // Intra frames cost more than predicted frames on this content.
        assert!(rep.frames[0].bits > rep.frames[1].bits);
    }

    #[test]
    fn sad_calls_are_collected() {
        let rep = Encoder::default().encode(&small_seq(3));
        assert!(rep.num_sad_calls() > 0);
        let (n, h, v, d) = rep.interp_shares();
        assert!((n + h + v + d - 1.0).abs() < 1e-9);
        assert!(n > 0.5, "integer candidates dominate: {n}");
    }

    #[test]
    fn encoding_is_deterministic() {
        let seq = small_seq(2);
        let a = Encoder::default().encode(&seq);
        let b = Encoder::default().encode(&seq);
        assert_eq!(a.total_bits, b.total_bits);
        assert_eq!(a.recon[1], b.recon[1]);
    }

    #[test]
    fn better_search_does_not_hurt_psnr_much() {
        let seq = small_seq(3);
        let diamond = Encoder::default().encode(&seq);
        let full = Encoder::new(EncoderConfig {
            q: 10,
            search: MotionSearch {
                algorithm: crate::me::SearchAlgorithm::Full { range: 8 },
                half_sample: true,
                approx: crate::sad::ApproxSad::Exact,
            },
        })
        .encode(&seq);
        // Full search finds at-least-as-good predictors; diamond must stay
        // within 3 dB on this easy content.
        assert!(full.frames[1].psnr_y + 3.0 > diamond.frames[1].psnr_y);
        // And full search costs far more GetSad calls.
        assert!(full.num_sad_calls() > 3 * diamond.num_sad_calls());
    }
}
