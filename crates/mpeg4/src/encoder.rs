//! The I/P encoding loop with in-loop reconstruction.
//!
//! First frame intra, the rest inter (simple profile, no B-frames), fixed
//! quantizer. Motion is searched in the *reconstructed* previous frame —
//! exactly what the reference encoder does, and what makes the `GetSad`
//! trace (and hence the simulated workload) faithful.

use crate::bitstream::BitWriter;
use crate::dct::{fdct, idct};
use crate::mc::{chroma_mv, predict_chroma, predict_mb, reconstruct_mb};
use crate::me::{assert_traceable, MotionSearch, SadCall, SearchScratch};
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
    /// Every `GetSad` call the search made (empty in an
    /// [`Encoder::encode_untraced`] report).
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
    /// Panics on an empty input, or on a frame over 65,535 px per side
    /// (a `GetSad` trace records `u16` coordinates).
    #[must_use]
    pub fn encode(&self, frames: &[Frame]) -> EncodeReport {
        self.encode_all(frames, true).0
    }

    /// Encodes a sequence like [`Encoder::encode`] without recording the
    /// `GetSad` trace: every [`MbTrace::calls`] is empty, while the chosen
    /// vectors, reconstructions, bits and PSNRs are the same. For a
    /// reference encode that is only compared against, never replayed.
    ///
    /// # Panics
    ///
    /// As for [`Encoder::encode`].
    #[must_use]
    pub fn encode_untraced(&self, frames: &[Frame]) -> EncodeReport {
        self.encode_all(frames, false).0
    }

    /// Encodes a sequence and also returns the per-frame byte streams
    /// (each zero-padded to a byte boundary), for the decoder round trip.
    ///
    /// # Panics
    ///
    /// As for [`Encoder::encode`].
    #[must_use]
    pub fn encode_with_streams(&self, frames: &[Frame]) -> (EncodeReport, Vec<Vec<u8>>) {
        self.encode_all(frames, true)
    }

    /// The encode loop behind every entry point; records the `GetSad`
    /// trace iff `record`.
    fn encode_all(&self, frames: &[Frame], record: bool) -> (EncodeReport, Vec<Vec<u8>>) {
        assert!(!frames.is_empty(), "cannot encode an empty sequence");
        for frame in frames {
            assert_traceable(&frame.y);
        }
        let mut scratch = SearchScratch::new(record);
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
                let (rec, rep, bytes) = self.encode_inter(frame, prev, &mut scratch);
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

    fn encode_inter(
        &self,
        frame: &Frame,
        prev: &Frame,
        scratch: &mut SearchScratch,
    ) -> (Frame, FrameReport, Vec<u8>) {
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
                let (mv, _) = self
                    .config
                    .search
                    .search_mb_in(scratch, &frame.y, &prev.y, mbx, mby, pred_mv);
                mvs[mby * mbs_x + mbx] = mv;
                // Differential MV coding against the median predictor.
                w.put_se(i32::from(mv.x) - i32::from(pred_mv.x));
                w.put_se(i32::from(mv.y) - i32::from(pred_mv.y));
                // Luma prediction + residual coding.
                let pred = predict_mb(&prev.y, mbx, mby, mv);
                let mut rec_res16 = [0i32; MB * MB];
                for sub in 0..4 {
                    let (ox, oy) = ((sub % 2) * 8, (sub / 2) * 8);
                    let block = residual8(
                        &frame.y,
                        mbx * MB + ox,
                        mby * MB + oy,
                        &pred[oy * MB + ox..],
                        MB,
                    );
                    let rec_block = code_inter_block(&mut w, &block, q);
                    for y in 0..8 {
                        for x in 0..8 {
                            rec_res16[(oy + y) * MB + ox + x] = rec_block[y * 8 + x];
                        }
                    }
                }
                reconstruct_mb(&mut rec.y, mbx, mby, &pred, &rec_res16);
                // Chroma: one 8×8 block per component.
                let cmv = chroma_mv(mv);
                for (src, prev_p, dst) in [
                    (&frame.u, &prev.u, &mut rec.u),
                    (&frame.v, &prev.v, &mut rec.v),
                ] {
                    code_chroma_block(&mut w, src, prev_p, dst, mbx, mby, cmv, q);
                }
                // An exact-capacity copy: the scratch buffer keeps its
                // capacity for the next macroblock.
                motion.push(MbTrace {
                    mbx,
                    mby,
                    mv,
                    calls: scratch.calls.clone(),
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
    for (j, out) in b.chunks_exact_mut(8).enumerate() {
        for (o, &s) in out.iter_mut().zip(&p.row(y + j)[x..x + 8]) {
            *o = i32::from(s);
        }
    }
    b
}

/// The 8×8 residual of the block at `(x, y)` of `src` against `pred`,
/// which holds the prediction from the block's top-left sample on,
/// `stride` samples per row.
fn residual8(src: &Plane, x: usize, y: usize, pred: &[u8], stride: usize) -> [i32; 64] {
    let mut b = [0i32; 64];
    for (j, out) in b.chunks_exact_mut(8).enumerate() {
        let s = &src.row(y + j)[x..x + 8];
        let p = &pred[j * stride..j * stride + 8];
        for ((o, &s), &p) in out.iter_mut().zip(s).zip(p) {
            *o = i32::from(s) - i32::from(p);
        }
    }
    b
}

/// Writes an 8×8 reconstruction (clamped) into a plane.
fn put_block8(p: &mut Plane, x: usize, y: usize, b: &[i32; 64]) {
    for (out, src) in p.block_rows_mut(x, y, 8, 8).zip(b.chunks_exact(8)) {
        for (px, &v) in out.iter_mut().zip(src) {
            *px = v.clamp(0, 255) as u8;
        }
    }
}

/// Codes one 8×8 inter residual block (samples in −255..=255): writes
/// its levels and returns the reconstructed residual.
fn code_inter_block(w: &mut BitWriter, block: &[i32; 64], q: i32) -> [i32; 64] {
    if quantizes_to_zero(block, q) {
        write_block(w, &[0; 64]);
        return [0; 64];
    }
    let levels = quant_inter(&fdct(block), q);
    write_block(w, &scan(&levels));
    idct(&dequant_inter(&levels, q))
}

/// Whether every level of `quant_inter(&fdct(block), q)` is zero, decided
/// from the block's energy `E = Σ b²` without the transform. Half the
/// residual blocks of the case study pass.
///
/// The DCT is orthonormal, so no coefficient exceeds `√E` in magnitude.
/// A level is zero when the rounded coefficient is below
/// `K = 2q + ⌊q/2⌋`, which holds when the coefficient is below `K − ½`.
/// `E ≤ K² − K` gives `√E ≤ K − ½ − 1/(8K)`. Samples in −255..=255 keep
/// `√E ≤ 2040`, so the bound only binds for `K ≤ 2041`, where that margin
/// is over 6·10⁻⁵: far above the float error of [`fdct`] (below 10⁻⁹
/// for such blocks). The levels are then exactly zero.
fn quantizes_to_zero(block: &[i32; 64], q: i32) -> bool {
    let q = i64::from(q);
    let k = 2 * q + q / 2;
    let energy: i64 = block.iter().map(|&b| i64::from(b) * i64::from(b)).sum();
    q > 0 && energy <= k * k - k
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
    let pred = predict_chroma(prev, mbx, mby, cmv);
    let rec_block = code_inter_block(w, &residual8(src, bx, by, &pred, 8), q);
    for (j, out) in dst.block_rows_mut(bx, by, 8, 8).enumerate() {
        for (i, px) in out.iter_mut().enumerate() {
            let v = i32::from(pred[j * 8 + i]) + rec_block[j * 8 + i];
            *px = v.clamp(0, 255) as u8;
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
    #[should_panic(expected = "too large to trace")]
    fn planes_a_trace_cannot_address_are_rejected_at_entry() {
        let _ = Encoder::default().encode(&[Frame::new(65_536, 16)]);
    }

    #[test]
    fn encoding_is_deterministic() {
        let seq = small_seq(2);
        let a = Encoder::default().encode(&seq);
        let b = Encoder::default().encode(&seq);
        assert_eq!(a.total_bits, b.total_bits);
        assert_eq!(a.recon[1], b.recon[1]);
    }

    /// Blocks at and just inside the energy bound of `quantizes_to_zero`:
    /// scaled DCT basis functions (where one coefficient comes closest to
    /// `√E`) and random blocks. Whenever the bound admits a block, its
    /// levels are zero.
    #[test]
    fn energy_bound_implies_zero_levels() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let alpha = |u: usize| if u == 0 { (0.125f64).sqrt() } else { 0.5 };
        let cos = |u: usize, x: usize| {
            ((2 * x + 1) as f64 * u as f64 * std::f64::consts::PI / 16.0).cos()
        };
        let mut admitted = 0;
        for q in 1..=31 {
            let k = f64::from(2 * q + q / 2);
            let mut check = |b: &[i32; 64]| {
                if quantizes_to_zero(b, q) {
                    admitted += 1;
                    assert_eq!(quant_inter(&fdct(b), q), [0; 64], "q {q}: {b:?}");
                }
            };
            for (v, u) in (0..8).flat_map(|v| (0..8).map(move |u| (v, u))) {
                for step in 0..40 {
                    let s = k - 1.0 + f64::from(step) * 0.025;
                    let mut b = [0i32; 64];
                    for (i, px) in b.iter_mut().enumerate() {
                        let phi = alpha(u) * alpha(v) * cos(u, i % 8) * cos(v, i / 8);
                        *px = (s * phi).round() as i32;
                    }
                    check(&b);
                }
            }
            for _ in 0..200 {
                let mut b = [0i32; 64];
                for px in &mut b {
                    *px = (next() % 511) as i32 - 255;
                }
                let energy: f64 = b.iter().map(|&px| f64::from(px).powi(2)).sum();
                let scale = ((k * k - k) / energy).sqrt();
                for px in &mut b {
                    *px = (f64::from(*px) * scale).round() as i32;
                }
                check(&b);
            }
        }
        assert!(admitted > 2000, "only {admitted} blocks admitted");
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
