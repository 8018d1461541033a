#![warn(missing_docs)]
//! # rvliw-kernels
//!
//! The motion-estimation `GetSad` kernel as VLIW programs — the code the
//! paper profiles and accelerates.
//!
//! Every variant implements the same contract (see [`regs`] for the calling
//! convention): given the reference macroblock address, the candidate
//! predictor address (any byte alignment), the interpolation mode and the
//! frame stride, return the exact MPEG-4 SAD in `$r16`.
//!
//! * [`Variant::Orig`] — the optimized reference code: SIMD (`sad4`,
//!   `avg4r`) for the SAD and the horizontal/vertical interpolations, but
//!   the diagonal interpolation is **scalar** (byte extract / add / shift /
//!   repack): the basic SIMD subset has no exact 4-input rounding average,
//!   which is precisely the gap the paper's RFU instructions fill.
//! * [`Variant::A1`] — instruction-level scenario A1: the diagonal loop is
//!   reformulated with the new 1-cycle 2-pixel SIMD extensions
//!   (`hadd2`/`rnd2`/`pack4`), issued up to 4 per cycle.
//! * [`Variant::A2`] — scenario A2: an `RFUEXEC` diagonal-interpolation
//!   instruction over 4 pixels, operands loaded with `RFUSEND` (two words
//!   per send on the 64-bit RFU port), serialized on the single RFU slot.
//! * [`Variant::A3`] — scenario A3: one `RFUEXEC` per 16-pixel row (10
//!   words sent, results read back word by word).
//!
//! [`driver`] builds the *loop-level* programs (Tables 2–7): a per-
//!   macroblock preparation program (reference-macroblock prefetch into
//!   Line Buffer A) and a per-candidate program that prefetches the *next*
//!   candidate, executes the whole kernel loop as one long-latency RFU
//!   instruction and folds the running SAD minimum.

pub mod dct;
pub mod driver;
pub mod getsad;
pub mod regs;

pub use dct::build_dct;
pub use driver::{build_mb_prep, build_me_loop_call, DriverKind};
pub use getsad::{build_getsad, build_getsad_approx, Variant};
