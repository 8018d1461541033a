//! Bitstream decoder: the inverse of [`Encoder`](crate::Encoder).
//!
//! Decodes the I/P stream produced by this crate's encoder and rebuilds the
//! exact reconstructed frames the encoder used as references — the
//! round-trip property `decode(encode(x)) == encoder reconstructions` is
//! what guards the whole texture-coding path (DCT, quantization, zig-zag,
//! run-level, exp-Golomb, motion compensation).

use std::fmt;

use crate::bitstream::BitReader;
use crate::dct::idct;
use crate::mc::{chroma_mv, predict_chroma, predict_mb, reconstruct_mb};
use crate::quant::{dequant_inter, dequant_intra};
use crate::rlc::read_block;
use crate::types::{Frame, Mv, Plane};
use crate::zigzag::unscan;
use crate::MB;

/// Decoding failure: the stream ended or was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Frame index at which decoding failed.
    pub frame: usize,
    /// What was being decoded.
    pub context: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "truncated stream in frame {} ({})",
            self.frame, self.context
        )
    }
}

impl std::error::Error for DecodeError {}

/// Decoder configuration: must match the encoder's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Fixed quantization parameter.
    pub q: i32,
    /// Luma width in pixels.
    pub width: usize,
    /// Luma height in pixels.
    pub height: usize,
    /// Number of frames in the stream (the toy stream has no headers; the
    /// caller carries the sequence parameters, as with out-of-band config).
    pub frames: usize,
}

/// Decodes a stream produced by [`Encoder::encode`]
/// (frame sizes are given out of band via `bits_per_frame` — the encoder's
/// per-frame bit counts — because the toy stream has no start codes).
///
/// # Errors
///
/// Returns [`DecodeError`] when the stream is truncated or malformed.
///
/// [`Encoder::encode`]: crate::Encoder::encode
pub fn decode(
    bytes: &[u8],
    bits_per_frame: &[usize],
    config: &DecoderConfig,
) -> Result<Vec<Frame>, DecodeError> {
    assert_eq!(
        bits_per_frame.len(),
        config.frames,
        "one bit count per frame"
    );
    let mut r = BitReader::new(bytes);
    let mut out: Vec<Frame> = Vec::with_capacity(config.frames);
    for (t, &frame_bits) in bits_per_frame.iter().enumerate() {
        let start_bits = r.bit_pos();
        let frame = match out.last() {
            None => decode_intra(&mut r, config, t)?,
            Some(prev) => decode_inter(&mut r, prev, config, t)?,
        };
        let consumed = r.bit_pos() - start_bits;
        if consumed > frame_bits {
            return Err(DecodeError {
                frame: t,
                context: "frame overran its bit budget",
            });
        }
        // Skip the zero padding up to the frame's byte boundary.
        let mut pad = frame_bits - consumed;
        while pad > 0 {
            let chunk = pad.min(32) as u8;
            r.get_bits(chunk).ok_or(DecodeError {
                frame: t,
                context: "frame padding",
            })?;
            pad -= usize::from(chunk);
        }
        out.push(frame);
    }
    Ok(out)
}

fn decode_intra(
    r: &mut BitReader<'_>,
    config: &DecoderConfig,
    t: usize,
) -> Result<Frame, DecodeError> {
    let mut frame = Frame::new(config.width, config.height);
    for plane_idx in 0..3 {
        let plane = match plane_idx {
            0 => &mut frame.y,
            1 => &mut frame.u,
            _ => &mut frame.v,
        };
        for by in 0..plane.height() / 8 {
            for bx in 0..plane.width() / 8 {
                let zz = read_block(r).ok_or(DecodeError {
                    frame: t,
                    context: "intra block",
                })?;
                let rec = idct(&dequant_intra(&unscan(&zz), config.q));
                for (out, src) in plane
                    .block_rows_mut(bx * 8, by * 8, 8, 8)
                    .zip(rec.chunks_exact(8))
                {
                    for (px, &v) in out.iter_mut().zip(src) {
                        *px = v.clamp(0, 255) as u8;
                    }
                }
            }
        }
    }
    Ok(frame)
}

fn decode_inter(
    r: &mut BitReader<'_>,
    prev: &Frame,
    config: &DecoderConfig,
    t: usize,
) -> Result<Frame, DecodeError> {
    let mbs_x = config.width / MB;
    let mbs_y = config.height / MB;
    let mut frame = Frame::new(config.width, config.height);
    let mut mvs: Vec<Mv> = vec![Mv::default(); mbs_x * mbs_y];
    for mby in 0..mbs_y {
        for mbx in 0..mbs_x {
            let pred_mv = crate::encoder::median_predictor(&mvs, mbs_x, mbx, mby);
            let dx = r.get_se().ok_or(DecodeError {
                frame: t,
                context: "mv dx",
            })?;
            let dy = r.get_se().ok_or(DecodeError {
                frame: t,
                context: "mv dy",
            })?;
            let mv = Mv::new(
                (i32::from(pred_mv.x) + dx) as i16,
                (i32::from(pred_mv.y) + dy) as i16,
            );
            mvs[mby * mbs_x + mbx] = mv;
            // Luma.
            let pred = predict_mb(&prev.y, mbx, mby, mv);
            let mut rec_res16 = [0i32; MB * MB];
            for sub in 0..4 {
                let (ox, oy) = ((sub % 2) * 8, (sub / 2) * 8);
                let zz = read_block(r).ok_or(DecodeError {
                    frame: t,
                    context: "luma block",
                })?;
                let rec = idct(&dequant_inter(&unscan(&zz), config.q));
                for y in 0..8 {
                    for x in 0..8 {
                        rec_res16[(oy + y) * MB + ox + x] = rec[y * 8 + x];
                    }
                }
            }
            reconstruct_mb(&mut frame.y, mbx, mby, &pred, &rec_res16);
            // Chroma.
            let cmv = chroma_mv(mv);
            for c in 0..2 {
                let (src_prev, dst): (&Plane, &mut Plane) = if c == 0 {
                    (&prev.u, &mut frame.u)
                } else {
                    (&prev.v, &mut frame.v)
                };
                decode_chroma_block(r, src_prev, dst, mbx, mby, cmv, config.q).ok_or(
                    DecodeError {
                        frame: t,
                        context: "chroma block",
                    },
                )?;
            }
        }
    }
    Ok(frame)
}

fn decode_chroma_block(
    r: &mut BitReader<'_>,
    prev: &Plane,
    dst: &mut Plane,
    mbx: usize,
    mby: usize,
    cmv: Mv,
    q: i32,
) -> Option<()> {
    let pred = predict_chroma(prev, mbx, mby, cmv);
    let zz = read_block(r)?;
    let rec = idct(&dequant_inter(&unscan(&zz), q));
    for (y, out) in dst.block_rows_mut(mbx * 8, mby * 8, 8, 8).enumerate() {
        for (x, px) in out.iter_mut().enumerate() {
            let v = i32::from(pred[y * 8 + x]) + rec[y * 8 + x];
            *px = v.clamp(0, 255) as u8;
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use crate::synth::SyntheticSequence;

    /// `decode(encode(x))` reproduces the encoder's reconstructions
    /// exactly — the whole texture path is lossless around the quantizer.
    #[test]
    fn decode_reproduces_encoder_reconstructions() {
        let frames = SyntheticSequence::new(64, 48, 3, 9).generate();
        let enc = Encoder::default();
        let (report, streams) = enc.encode_with_streams(&frames);
        let mut all = Vec::new();
        for s in &streams {
            all.extend_from_slice(s);
        }
        let padded_bits: Vec<usize> = streams.iter().map(|s| s.len() * 8).collect();
        let decoded = decode(
            &all,
            &padded_bits,
            &DecoderConfig {
                q: 10,
                width: 64,
                height: 48,
                frames: 3,
            },
        )
        .unwrap_or_else(|e| panic!("decode failed: {e}"));
        assert_eq!(decoded.len(), 3);
        for (t, (d, r)) in decoded.iter().zip(&report.recon).enumerate() {
            assert_eq!(d, r, "frame {t} reconstruction mismatch");
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let frames = SyntheticSequence::new(64, 48, 2, 9).generate();
        let enc = Encoder::default();
        let (_, streams) = enc.encode_with_streams(&frames);
        let mut all = Vec::new();
        for s in &streams {
            all.extend_from_slice(s);
        }
        let padded_bits: Vec<usize> = streams.iter().map(|s| s.len() * 8).collect();
        let cut = &all[..all.len() / 2];
        let err = decode(
            cut,
            &padded_bits,
            &DecoderConfig {
                q: 10,
                width: 64,
                height: 48,
                frames: 2,
            },
        )
        .unwrap_err();
        assert!(err.frame < 2);
    }
}
