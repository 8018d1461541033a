#![warn(missing_docs)]
//! # mpeg4-enc
//!
//! MPEG-4 simple-profile encoder substrate for the reconfigurable-VLIW case
//! study.
//!
//! The paper benchmarks the motion-estimation stage of an MPEG-4 video
//! encoder (the MoMuSys reference code) on a 25-frame QCIF *Foreman*
//! sequence with fixed quantizer Q = 10. Neither the reference C code nor
//! the Foreman sequence can be redistributed here, so this crate implements
//! the encoder from the ISO/IEC 14496-2 algorithm descriptions and generates
//! a **deterministic synthetic QCIF sequence** with comparable motion
//! statistics (global pan + local object motion + texture), tuned so that
//! the diagonal half-sample interpolation is selected in ≈18 % of `GetSad`
//! calls — the property the paper reports for its test sequence.
//!
//! Everything needed by a simple-profile encoder is here and runs as
//! host-side "golden" code:
//!
//! * [`types`] — planes, frames, macroblocks, half-sample motion vectors;
//! * [`synth`] — the synthetic sequence generator (Foreman substitute);
//! * [`sad`] — SAD and exact half-sample interpolation (the `GetSad` golden
//!   model the VLIW kernels are verified against);
//! * [`me`] — motion-estimation search algorithms (full search, three-step,
//!   diamond, spiral) with half-sample refinement, each producing the exact
//!   trace of `GetSad` calls that drives the simulator;
//! * [`dct`] / [`quant`] / [`zigzag`] / [`rlc`] / [`bitstream`] — texture
//!   coding: 8×8 DCT, H.263-style quantization, zig-zag scan, run-level
//!   coding and an exp-Golomb entropy layer;
//! * [`mc`] — half-sample motion compensation and reconstruction;
//! * [`encoder`] — the I/P encoding loop with in-loop reconstruction
//!   (candidates are searched in the *reconstructed* previous frame, as in
//!   the reference encoder);
//! * [`footprint`] — the Figure 2 rendering of a predictor macroblock's
//!   packed-word data set.

pub mod bitstream;
pub mod dct;
pub mod decoder;
pub mod encoder;
pub mod footprint;
pub mod mc;
pub mod me;
pub mod psnr;
pub mod quality;
pub mod quant;
pub mod rlc;
pub mod sad;
pub mod synth;
pub mod types;
pub mod zigzag;

pub use decoder::{decode, DecoderConfig};
pub use encoder::{EncodeReport, Encoder, EncoderConfig, FrameReport};
pub use me::{MotionSearch, SadCall, SearchAlgorithm};
pub use quality::{EncodeScore, QualityMetrics};
pub use sad::{get_sad_approx, interp_mode_of, ApproxSad, InterpKind};
pub use synth::SyntheticSequence;
pub use types::{Frame, Mv, Plane};

/// Macroblock edge in pixels.
pub const MB: usize = 16;
/// QCIF luma width.
pub const QCIF_W: usize = 176;
/// QCIF luma height.
pub const QCIF_H: usize = 144;
