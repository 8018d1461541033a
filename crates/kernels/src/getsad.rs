//! The `GetSad` kernel programs (ORIG and the instruction-level RFU
//! scenarios A1–A3).
//!
//! All variants share the structure of the paper's Listing 1: a dispatch on
//! the interpolation mode, then a 16-iteration row loop that
//!
//! 1. reads the five packed 32-bit words of the predictor row,
//! 2. aligns the needed 17 pixels (variable shifts — the alignment is a
//!    run-time value),
//! 3. interpolates when a sub-pixel motion vector is given,
//! 4. reads the 16 reference pixels and accumulates the SAD (`sad4`).
//!
//! The variants differ **only in the diagonal-interpolation loop** — the
//! hot spot the paper attacks — exactly as in the case study.

use rvliw_asm::{schedule, Builder, Code, Label};
use rvliw_isa::{Gpr, MachineConfig, Src};
use rvliw_rfu::{cfgs, SadApprox};

use crate::regs::{ARG_CAND, ARG_INTERP, ARG_REF, ARG_STRIDE, RESULT};

/// Which kernel implementation to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The optimized reference C code (basic SIMD subset; scalar diagonal).
    Orig,
    /// A1: new 1-cycle SIMD instructions (2-pixel exact diagonal family),
    /// issued on the regular 4-wide slots.
    A1,
    /// A2: `RFUEXEC` diagonal interpolation over 4 pixels.
    A2,
    /// A3: `RFUEXEC` diagonal interpolation over a 16-pixel row.
    A3,
}

impl Variant {
    /// Display name matching the paper's Table 1 rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Variant::Orig => "Orig",
            Variant::A1 => "A1",
            Variant::A2 => "A2",
            Variant::A3 => "A3",
        }
    }

    /// All variants in Table 1 order.
    #[must_use]
    pub fn all() -> [Variant; 4] {
        [Variant::Orig, Variant::A1, Variant::A2, Variant::A3]
    }
}

// ---- local register map (see regs.rs for the argument convention) -------
pub(crate) const CANDP: Gpr = Gpr::new(1); // word-aligned candidate pointer
pub(crate) const SH: Gpr = Gpr::new(2); // alignment shift in bits (0, 8, 16, 24)
pub(crate) const SHL: Gpr = Gpr::new(3); // 32 - SH
pub(crate) const REFP: Gpr = Gpr::new(4);
pub(crate) const CNT: Gpr = Gpr::new(5);
pub(crate) const ACC: Gpr = Gpr::new(6);
pub(crate) const TMP: Gpr = Gpr::new(7);
pub(crate) const ALIGN: Gpr = Gpr::new(60); // byte alignment 0..3 (RFU operand)

pub(crate) const W: [Gpr; 5] = [
    Gpr::new(8),
    Gpr::new(9),
    Gpr::new(10),
    Gpr::new(11),
    Gpr::new(12),
];
pub(crate) const A: [Gpr; 5] = [
    Gpr::new(20),
    Gpr::new(21),
    Gpr::new(22),
    Gpr::new(23),
    Gpr::new(24),
];
pub(crate) const REF: [Gpr; 4] = [Gpr::new(25), Gpr::new(26), Gpr::new(27), Gpr::new(28)];
pub(crate) const S: [Gpr; 4] = [Gpr::new(29), Gpr::new(30), Gpr::new(31), Gpr::new(13)];
pub(crate) const PA: [Gpr; 5] = [
    Gpr::new(32),
    Gpr::new(33),
    Gpr::new(34),
    Gpr::new(35),
    Gpr::new(36),
];
pub(crate) const PW: [Gpr; 5] = [
    Gpr::new(40),
    Gpr::new(41),
    Gpr::new(42),
    Gpr::new(43),
    Gpr::new(44),
];
pub(crate) const TT: [Gpr; 4] = [Gpr::new(45), Gpr::new(46), Gpr::new(47), Gpr::new(48)];
// Scalar diagonal working set (two sets, alternating by pixel parity, to
// expose a little ILP under realistic register pressure).
pub(crate) const BY: [Gpr; 2] = [Gpr::new(50), Gpr::new(52)];
pub(crate) const BY1: [Gpr; 2] = [Gpr::new(51), Gpr::new(53)];
pub(crate) const T1: [Gpr; 2] = [Gpr::new(54), Gpr::new(61)];
pub(crate) const T2: [Gpr; 2] = [Gpr::new(55), Gpr::new(62)];
pub(crate) const SS: [Gpr; 2] = [Gpr::new(56), Gpr::new(49)];
pub(crate) const DD: [Gpr; 2] = [Gpr::new(57), Gpr::new(37)];
pub(crate) const OW: Gpr = Gpr::new(58);
pub(crate) const DS: Gpr = Gpr::new(59);
// A1 family temporaries.
const HY: [Gpr; 2] = [Gpr::new(50), Gpr::new(52)];
const HY1: [Gpr; 2] = [Gpr::new(51), Gpr::new(53)];
const SUM: [Gpr; 2] = [Gpr::new(54), Gpr::new(61)];
const D2: [Gpr; 2] = [Gpr::new(56), Gpr::new(49)];
// A3 row result words.
const OWS: [Gpr; 4] = [Gpr::new(58), Gpr::new(57), Gpr::new(37), Gpr::new(38)];
// Approximate-mode registers. The two are never live together: a kernel is
// built for exactly one approximation, and subsampling and early exit do
// not combine.
const DSTRIDE: Gpr = Gpr::new(39); // stride between *sampled* rows
const THRESH: Gpr = Gpr::new(39); // early-exit threshold
const CANDP2: Gpr = Gpr::new(63); // row-below pointer (subsampled V/diag)

/// Builds and schedules the `GetSad` program for `variant`.
///
/// # Panics
///
/// Panics only on an internal generator bug (the emitted program always
/// validates and schedules).
#[must_use]
pub fn build_getsad(variant: Variant, cfg: &MachineConfig) -> Code {
    build_getsad_approx(variant, SadApprox::Exact, cfg)
}

/// Builds `variant`'s kernel with an approximate SAD datapath. With
/// [`SadApprox::Exact`] the emitted program is byte-identical to
/// [`build_getsad`]'s — the approximation hooks emit nothing — which keeps
/// exact-mode program hashes (and hence cache keys) stable.
///
/// # Panics
///
/// Panics only on an internal generator bug (the emitted program always
/// validates and schedules).
#[must_use]
pub fn build_getsad_approx(variant: Variant, approx: SadApprox, cfg: &MachineConfig) -> Code {
    let mut name = format!("getsad_{}", variant.name().to_lowercase());
    if !approx.is_exact() {
        name.push_str("_approx");
    }
    let mut b = Builder::new(name);
    let l_none = b.label();
    let l_h = b.label();
    let l_v = b.label();
    let l_diag = b.label();

    emit_init_dispatch(&mut b, l_none, l_h, l_v, l_diag, approx);

    b.bind(l_none);
    emit_body_none(&mut b, approx);
    b.bind(l_h);
    emit_body_h(&mut b, approx);
    b.bind(l_v);
    emit_body_v(&mut b, approx);
    b.bind(l_diag);
    match variant {
        Variant::Orig => emit_diag_scalar(&mut b, approx),
        Variant::A1 => emit_diag_a1(&mut b, approx),
        Variant::A2 => emit_diag_a2(&mut b, approx),
        Variant::A3 => emit_diag_a3(&mut b, approx),
    }

    let program = b.build();
    schedule(&program, cfg).unwrap_or_else(|e| panic!("GetSad kernels always schedule: {e}"))
}

/// Row subsampling step of the loop (1 = every row).
fn sub_step(approx: SadApprox) -> u32 {
    match approx {
        SadApprox::SubsampledRows { step } if step > 1 => u32::from(step),
        _ => 1,
    }
}

/// The 4-lane pixel mask word, when the mode masks pixels at all.
fn mask_word(approx: SadApprox) -> Option<i32> {
    let m = approx.pixel_mask();
    (m != 0xFF).then(|| i32::from_ne_bytes([m; 4]))
}

/// Common initialisation and the interpolation-mode dispatch.
fn emit_init_dispatch(
    b: &mut Builder,
    l_none: Label,
    l_h: Label,
    l_v: Label,
    l_diag: Label,
    approx: SadApprox,
) {
    // Pointer/shift setup: the candidate address is split into the aligned
    // word pointer and the byte alignment.
    b.and(CANDP, ARG_CAND, -4);
    b.and(ALIGN, ARG_CAND, 3);
    b.sll(SH, ALIGN, 3);
    b.movi(TMP, 32);
    b.sub(SHL, TMP, SH);
    b.mov(REFP, ARG_REF);
    b.movi(ACC, 0);
    let step = sub_step(approx);
    b.movi(CNT, (16 / step) as i32);
    if step > 1 {
        // Stride between consecutive *sampled* rows (step is 2 or 4).
        b.sll(DSTRIDE, ARG_STRIDE, step.trailing_zeros() as i32);
    }
    if let SadApprox::EarlyExit { threshold } = approx {
        b.movi(THRESH, threshold as i32);
    }
    let c0 = rvliw_isa::Br::new(0);
    let c1 = rvliw_isa::Br::new(1);
    let c2 = rvliw_isa::Br::new(2);
    b.cmpeq_br(c0, ARG_INTERP, 0);
    b.cmpeq_br(c1, ARG_INTERP, 1);
    b.cmpeq_br(c2, ARG_INTERP, 2);
    b.br(c0, l_none);
    b.br(c1, l_h);
    b.br(c2, l_v);
    b.goto(l_diag);
}

/// Loads the five packed words of the current predictor row.
pub(crate) fn emit_load_words(b: &mut Builder, dst: &[Gpr; 5]) {
    emit_load_words_from(b, CANDP, dst);
}

/// Loads five packed row words from an arbitrary word-aligned base (the
/// subsampled bodies fetch the row below through a second pointer).
fn emit_load_words_from(b: &mut Builder, base: Gpr, dst: &[Gpr; 5]) {
    for (k, &r) in dst.iter().enumerate() {
        b.ldw(r, base, (k * 4) as i32);
    }
}

/// Aligns `W` into the first four registers of `dst` (the 16 pixels), using
/// the run-time shift pair. `with_a4` also produces the 17th-pixel word.
pub(crate) fn emit_align(b: &mut Builder, dst: &[Gpr; 5], with_a4: bool) {
    for k in 0..4 {
        b.sll(TT[k], W[k + 1], SHL);
        b.srl(dst[k], W[k], SH);
        b.or(dst[k], dst[k], TT[k]);
    }
    if with_a4 {
        b.srl(dst[4], W[4], SH);
    }
}

/// Loads the four reference words of the current row, masking them in
/// place under reduced precision (they are reloaded every row).
fn emit_ref_loads(b: &mut Builder, approx: SadApprox) {
    for (k, &r) in REF.iter().enumerate() {
        b.ldw(r, REFP, (k * 4) as i32);
    }
    if let Some(m) = mask_word(approx) {
        for &r in &REF {
            b.and(r, r, m);
        }
    }
}

/// One `sad4` against a reference word, masking the (dead-after-use)
/// predictor word first under reduced precision.
fn emit_masked_sad4(b: &mut Builder, dst: Gpr, pred: Gpr, refw: Gpr, approx: SadApprox) {
    if let Some(m) = mask_word(approx) {
        b.and(pred, pred, m);
    }
    b.sad4(dst, pred, refw);
}

/// `sad4` the four predictor words in `pred` against the reference row and
/// accumulates (balanced tree to keep the dependence chain short).
fn emit_sad_acc(b: &mut Builder, pred: &[Gpr], approx: SadApprox) {
    for k in 0..4 {
        emit_masked_sad4(b, S[k], pred[k], REF[k], approx);
    }
    b.add(S[0], S[0], S[1]);
    b.add(S[2], S[2], S[3]);
    b.add(ACC, ACC, S[0]);
    b.add(ACC, ACC, S[2]);
}

/// Pointer advance, loop counter and back edge. Subsampled kernels step
/// both pointers by `step` rows at once.
fn emit_advance_loop(b: &mut Builder, top: Label, approx: SadApprox) {
    let stride: Gpr = if sub_step(approx) > 1 {
        DSTRIDE
    } else {
        ARG_STRIDE
    };
    b.add(CANDP, CANDP, stride);
    b.add(REFP, REFP, stride);
    b.subi(CNT, CNT, 1);
    let c = rvliw_isa::Br::new(3);
    b.cmpne_br(c, CNT, 0);
    b.br(c, top);
}

/// Ends a row body: the optional early-exit test, the loop back edge and
/// the epilogue. In exact mode this is exactly `advance + epilogue`.
fn emit_loop_end(b: &mut Builder, top: Label, approx: SadApprox) {
    if matches!(approx, SadApprox::EarlyExit { .. }) {
        // ACC > THRESH (unsigned) ⇒ the partial sum is the result.
        let l_done = b.label();
        let c4 = rvliw_isa::Br::new(4);
        b.cmpltu_br(c4, THRESH, ACC);
        b.br(c4, l_done);
        emit_advance_loop(b, top, approx);
        b.bind(l_done);
        emit_epilogue(b);
    } else {
        emit_advance_loop(b, top, approx);
        emit_epilogue(b);
    }
}

/// Result in `$r16`, stop.
fn emit_epilogue(b: &mut Builder) {
    b.mov(RESULT, ACC);
    b.halt();
}

/// Integer-pixel body: align and SAD.
fn emit_body_none(b: &mut Builder, approx: SadApprox) {
    let top = b.label();
    b.bind(top);
    emit_load_words(b, &W);
    emit_align(b, &A, false);
    emit_ref_loads(b, approx);
    emit_sad_acc(b, &A[..4], approx);
    emit_loop_end(b, top, approx);
}

/// Horizontal half-sample body: `avg4r` of the aligned row with its
/// one-byte-shifted window.
fn emit_body_h(b: &mut Builder, approx: SadApprox) {
    let top = b.label();
    b.bind(top);
    emit_load_words(b, &W);
    emit_align(b, &A, true);
    emit_ref_loads(b, approx);
    // Shifted windows: bytes k*4+1 .. k*4+5 of the aligned row. The raw
    // words are dead after alignment, so they host the shifted values.
    for k in 0..4 {
        b.sll(TT[k], A[k + 1], 24);
        b.srl(W[k], A[k], 8);
        b.or(W[k], W[k], TT[k]);
        b.avg4r(W[k], A[k], W[k]);
    }
    emit_sad_acc(b, &W[..4], approx);
    emit_loop_end(b, top, approx);
}

/// Vertical half-sample body: `avg4r` of the previous and current aligned
/// rows. With every row visited the previous row is carried across
/// iterations; a subsampled kernel instead fetches the row below through a
/// second pointer, because the next iteration's row is `step` rows away.
fn emit_body_v(b: &mut Builder, approx: SadApprox) {
    let top = b.label();
    if sub_step(approx) == 1 {
        // Prologue: align row 0 into PA.
        emit_load_words(b, &W);
        emit_align(b, &PA, false);
        b.add(CANDP, CANDP, ARG_STRIDE);
        b.bind(top);
        emit_load_words(b, &W);
        emit_align(b, &A, false);
        emit_ref_loads(b, approx);
        for k in 0..4 {
            b.avg4r(W[k], PA[k], A[k]);
        }
        emit_sad_acc(b, &W[..4], approx);
        for k in 0..4 {
            b.mov(PA[k], A[k]);
        }
    } else {
        b.bind(top);
        b.add(CANDP2, CANDP, ARG_STRIDE);
        emit_load_words(b, &W);
        emit_align(b, &PA, false);
        emit_load_words_from(b, CANDP2, &W);
        emit_align(b, &A, false);
        emit_ref_loads(b, approx);
        for k in 0..4 {
            b.avg4r(W[k], PA[k], A[k]);
        }
        emit_sad_acc(b, &W[..4], approx);
    }
    emit_loop_end(b, top, approx);
}

/// ORIG diagonal body: exact but **scalar** — byte extracts, 10-bit sums,
/// rounding shift, repack. The basic SIMD subset has no exact 4-input
/// rounded average, so this is what the compiled reference code does; it is
/// the hot spot the RFU scenarios attack.
fn emit_diag_scalar(b: &mut Builder, approx: SadApprox) {
    let carry = sub_step(approx) == 1;
    let top = b.label();
    if carry {
        emit_load_words(b, &W);
        emit_align(b, &PA, true);
        b.add(CANDP, CANDP, ARG_STRIDE);
        b.bind(top);
        emit_load_words(b, &W);
        emit_align(b, &A, true);
    } else {
        b.bind(top);
        b.add(CANDP2, CANDP, ARG_STRIDE);
        emit_load_words(b, &W);
        emit_align(b, &PA, true);
        emit_load_words_from(b, CANDP2, &W);
        emit_align(b, &A, true);
    }
    emit_ref_loads(b, approx);
    // Pixel 0's left neighbours.
    b.extbu(BY[0], PA[0], 0);
    b.extbu(BY1[0], A[0], 0);
    for i in 0..16usize {
        let cur = i % 2;
        let nxt = (i + 1) % 2;
        let wi = (i + 1) / 4;
        let lane = ((i + 1) % 4) as i32;
        // Next column of both rows.
        b.extbu(BY[nxt], PA[wi], lane);
        b.extbu(BY1[nxt], A[wi], lane);
        // s = p00 + p01 + p10 + p11 + 2; d = s >> 2.
        b.add(T1[cur], BY[cur], BY[nxt]);
        b.add(T2[cur], BY1[cur], BY1[nxt]);
        b.add(SS[cur], T1[cur], T2[cur]);
        b.addi(SS[cur], SS[cur], 2);
        b.srl(DD[cur], SS[cur], 2);
        // Repack into the output word.
        if i % 4 == 0 {
            b.mov(OW, DD[cur]);
        } else {
            b.sll(DS, DD[cur], (8 * (i % 4)) as i32);
            b.or(OW, OW, DS);
        }
        if i % 4 == 3 {
            let g = i / 4;
            emit_masked_sad4(b, S[g], OW, REF[g], approx);
            b.add(ACC, ACC, S[g]);
        }
    }
    if carry {
        for k in 0..5 {
            b.mov(PA[k], A[k]);
        }
    }
    emit_loop_end(b, top, approx);
}

/// A1 diagonal body: the 2-pixel exact family (`hadd2` horizontal pair
/// sums, plain adds for the vertical combine, `rnd2` rounding divide,
/// `pack4` repack) over the *aligned* rows — 4-issue 1-cycle operations.
fn emit_diag_a1(b: &mut Builder, approx: SadApprox) {
    let carry = sub_step(approx) == 1;
    let top = b.label();
    if carry {
        emit_load_words(b, &W);
        emit_align(b, &PA, true);
        b.add(CANDP, CANDP, ARG_STRIDE);
        b.bind(top);
        emit_load_words(b, &W);
        emit_align(b, &A, true);
    } else {
        b.bind(top);
        b.add(CANDP2, CANDP, ARG_STRIDE);
        emit_load_words(b, &W);
        emit_align(b, &PA, true);
        emit_load_words_from(b, CANDP2, &W);
        emit_align(b, &A, true);
    }
    emit_ref_loads(b, approx);
    for g in 0..8usize {
        let px = 2 * g;
        let wi = px / 4;
        let lane = (px % 4) as i32;
        let p = g % 2;
        b.op(rvliw_isa::Op::new(
            rvliw_isa::Opcode::Hadd2,
            HY[p].into(),
            &[PA[wi].into(), PA[wi + 1].into(), lane.into()],
        ));
        b.op(rvliw_isa::Op::new(
            rvliw_isa::Opcode::Hadd2,
            HY1[p].into(),
            &[A[wi].into(), A[wi + 1].into(), lane.into()],
        ));
        b.add(SUM[p], HY[p], HY1[p]);
        b.op(rvliw_isa::Op::new(
            rvliw_isa::Opcode::Rnd2,
            D2[p].into(),
            &[SUM[p].into()],
        ));
        if g % 2 == 1 {
            let word = g / 2;
            b.op(rvliw_isa::Op::new(
                rvliw_isa::Opcode::Pack4,
                OW.into(),
                &[D2[0].into(), D2[1].into()],
            ));
            emit_masked_sad4(b, S[word], OW, REF[word], approx);
            b.add(ACC, ACC, S[word]);
        }
    }
    if carry {
        for k in 0..5 {
            b.mov(PA[k], A[k]);
        }
    }
    emit_loop_end(b, top, approx);
}

/// A2 diagonal body: `RFUSEND` the raw word pairs of both rows, one
/// `RFUEXEC` per 4 pixels (alignment handled inside the configuration).
fn emit_diag_a2(b: &mut Builder, approx: SadApprox) {
    let carry = sub_step(approx) == 1;
    b.rfu_init(cfgs::DIAG4);
    let top = b.label();
    if carry {
        emit_load_words(b, &PW);
        b.add(CANDP, CANDP, ARG_STRIDE);
        b.bind(top);
        emit_load_words(b, &W);
    } else {
        b.bind(top);
        b.add(CANDP2, CANDP, ARG_STRIDE);
        emit_load_words(b, &PW);
        emit_load_words_from(b, CANDP2, &W);
    }
    emit_ref_loads(b, approx);
    for g in 0..4usize {
        b.rfu_send(cfgs::DIAG4, &[PW[g], PW[g + 1]]);
        b.rfu_send(cfgs::DIAG4, &[W[g], W[g + 1]]);
        b.rfu_exec(cfgs::DIAG4, OW, &[Src::Gpr(ALIGN)]);
        emit_masked_sad4(b, S[g], OW, REF[g], approx);
        b.add(ACC, ACC, S[g]);
    }
    if carry {
        for k in 0..5 {
            b.mov(PW[k], W[k]);
        }
    }
    emit_loop_end(b, top, approx);
}

/// A3 diagonal body: ten words sent, one `RFUEXEC` per 16-pixel row plus
/// three result reads.
fn emit_diag_a3(b: &mut Builder, approx: SadApprox) {
    let carry = sub_step(approx) == 1;
    b.rfu_init(cfgs::DIAG16);
    let top = b.label();
    if carry {
        emit_load_words(b, &PW);
        b.add(CANDP, CANDP, ARG_STRIDE);
        b.bind(top);
        emit_load_words(b, &W);
    } else {
        b.bind(top);
        b.add(CANDP2, CANDP, ARG_STRIDE);
        emit_load_words(b, &PW);
        emit_load_words_from(b, CANDP2, &W);
    }
    emit_ref_loads(b, approx);
    // Row y then row y+1, five words each.
    b.rfu_send(cfgs::DIAG16, &[PW[0], PW[1]]);
    b.rfu_send(cfgs::DIAG16, &[PW[2], PW[3]]);
    b.rfu_send(cfgs::DIAG16, &[PW[4], W[0]]);
    b.rfu_send(cfgs::DIAG16, &[W[1], W[2]]);
    b.rfu_send(cfgs::DIAG16, &[W[3], W[4]]);
    b.rfu_exec(cfgs::DIAG16, OWS[0], &[Src::Gpr(ALIGN)]);
    b.rfu_exec(cfgs::DIAG16_R1, OWS[1], &[]);
    b.rfu_exec(cfgs::DIAG16_R2, OWS[2], &[]);
    b.rfu_exec(cfgs::DIAG16_R3, OWS[3], &[]);
    for g in 0..4usize {
        emit_masked_sad4(b, S[g], OWS[g], REF[g], approx);
        b.add(ACC, ACC, S[g]);
    }
    if carry {
        for k in 0..5 {
            b.mov(PW[k], W[k]);
        }
    }
    emit_loop_end(b, top, approx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpeg4_enc::sad::{get_sad, InterpKind};
    use mpeg4_enc::types::Plane;
    use rvliw_rfu::{MeLoopCfg, RfuBandwidth};
    use rvliw_sim::Machine;

    const STRIDE: u32 = 176;

    fn textured_plane(w: usize, h: usize, seed: u32) -> Plane {
        let mut p = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = (x as u32)
                    .wrapping_mul(31)
                    .wrapping_add((y as u32).wrapping_mul(17))
                    .wrapping_add(seed.wrapping_mul(97))
                    .wrapping_mul(2_654_435_761);
                p.set(x, y, (v >> 24) as u8);
            }
        }
        p
    }

    /// Loads a plane into simulator RAM, returning its base address.
    fn load_plane(m: &mut Machine, p: &Plane) -> u32 {
        let base = m.mem.ram.alloc((p.width() * p.height()) as u32, 32);
        for y in 0..p.height() {
            m.mem
                .ram
                .write_bytes(base + (y * p.width()) as u32, p.row(y));
        }
        base
    }

    fn machine_with_rfu() -> Machine {
        rvliw_core::SimSession::st200()
            .me_loop(MeLoopCfg::new(RfuBandwidth::B1x32, 1, STRIDE))
            .build()
    }

    fn run_kernel(m: &mut Machine, code: &Code, ref_addr: u32, cand_addr: u32, interp: u32) -> u32 {
        m.set_gpr(ARG_REF, ref_addr);
        m.set_gpr(ARG_CAND, cand_addr);
        m.set_gpr(ARG_INTERP, interp);
        m.set_gpr(ARG_STRIDE, STRIDE);
        m.run(code).unwrap();
        m.gpr(RESULT)
    }

    /// Every variant × every mode × every alignment matches the golden SAD.
    #[test]
    fn kernels_match_golden_sad_exactly() {
        let cur = textured_plane(176, 48, 1);
        let prev = textured_plane(176, 48, 2);
        for variant in Variant::all() {
            let code = build_getsad(variant, &MachineConfig::st200());
            let mut m = machine_with_rfu();
            let cur_base = load_plane(&mut m, &cur);
            let prev_base = load_plane(&mut m, &prev);
            for kind in [
                InterpKind::None,
                InterpKind::H,
                InterpKind::V,
                InterpKind::Diag,
            ] {
                for align in 0..4usize {
                    let (rx, ry) = (16, 16);
                    let (cx, cy) = (20 + align, 9);
                    let golden = get_sad(&cur, rx, ry, &prev, cx, cy, kind);
                    let got = run_kernel(
                        &mut m,
                        &code,
                        cur_base + (ry * 176 + rx) as u32,
                        prev_base + (cy * 176 + cx) as u32,
                        kind.code(),
                    );
                    assert_eq!(
                        got, golden,
                        "variant {:?} kind {kind:?} align {align}",
                        variant
                    );
                }
            }
        }
    }

    /// Every variant × approx mode × interpolation × alignment matches the
    /// scalar approximate reference bit for bit.
    #[test]
    fn approx_kernels_match_scalar_reference_exactly() {
        use mpeg4_enc::sad::{get_sad_approx, ApproxSad};
        let cur = textured_plane(176, 48, 7);
        let prev = textured_plane(176, 48, 8);
        let cases = [
            (
                ApproxSad::SubsampledRows { step: 2 },
                SadApprox::SubsampledRows { step: 2 },
            ),
            (
                ApproxSad::SubsampledRows { step: 4 },
                SadApprox::SubsampledRows { step: 4 },
            ),
            (
                ApproxSad::ReducedPrecision { bits: 1 },
                SadApprox::ReducedPrecision { bits: 1 },
            ),
            (
                ApproxSad::ReducedPrecision { bits: 3 },
                SadApprox::ReducedPrecision { bits: 3 },
            ),
            (
                ApproxSad::EarlyExit { threshold: 0 },
                SadApprox::EarlyExit { threshold: 0 },
            ),
            (
                ApproxSad::EarlyExit { threshold: 2000 },
                SadApprox::EarlyExit { threshold: 2000 },
            ),
        ];
        for variant in Variant::all() {
            for (host, hw) in cases {
                let code = build_getsad_approx(variant, hw, &MachineConfig::st200());
                let mut m = machine_with_rfu();
                let cur_base = load_plane(&mut m, &cur);
                let prev_base = load_plane(&mut m, &prev);
                for kind in [
                    InterpKind::None,
                    InterpKind::H,
                    InterpKind::V,
                    InterpKind::Diag,
                ] {
                    for align in 0..4usize {
                        let (rx, ry) = (16, 16);
                        let (cx, cy) = (20 + align, 9);
                        let golden = get_sad_approx(&cur, rx, ry, &prev, cx, cy, kind, host);
                        let got = run_kernel(
                            &mut m,
                            &code,
                            cur_base + (ry * 176 + rx) as u32,
                            prev_base + (cy * 176 + cx) as u32,
                            kind.code(),
                        );
                        assert_eq!(
                            got, golden,
                            "variant {variant:?} approx {hw:?} kind {kind:?} align {align}"
                        );
                    }
                }
            }
        }
    }

    /// The exact-mode approx builder is the plain builder, program for
    /// program (cache keys hash the program words).
    #[test]
    fn exact_approx_build_is_byte_identical() {
        for variant in Variant::all() {
            let a = build_getsad(variant, &MachineConfig::st200());
            let b = build_getsad_approx(variant, SadApprox::Exact, &MachineConfig::st200());
            assert_eq!(a.content_key().hex(), b.content_key().hex(), "{variant:?}");
        }
    }

    /// The RFU variants beat ORIG on diagonal calls, in the paper's order.
    #[test]
    fn diagonal_cycle_ordering_orig_a1_a2_a3() {
        let cur = textured_plane(176, 48, 3);
        let prev = textured_plane(176, 48, 4);
        let mut cycles = Vec::new();
        for variant in Variant::all() {
            let code = build_getsad(variant, &MachineConfig::st200());
            let mut m = machine_with_rfu();
            let cur_base = load_plane(&mut m, &cur);
            let prev_base = load_plane(&mut m, &prev);
            // Warm caches and I$ with one throwaway call.
            let _ = run_kernel(
                &mut m,
                &code,
                cur_base + 16 * 176 + 16,
                prev_base + 9 * 176 + 21,
                3,
            );
            let before = m.cycle();
            let _ = run_kernel(
                &mut m,
                &code,
                cur_base + 16 * 176 + 16,
                prev_base + 9 * 176 + 21,
                3,
            );
            cycles.push((variant, m.cycle() - before));
        }
        let orig = cycles[0].1;
        let a1 = cycles[1].1;
        let a2 = cycles[2].1;
        let a3 = cycles[3].1;
        assert!(orig > a1, "orig {orig} > a1 {a1}");
        assert!(a1 > a3, "a1 {a1} > a3 {a3}");
        assert!(a2 > a3, "a2 {a2} > a3 {a3}");
    }

    /// Non-diagonal calls cost the same across variants (the scenarios only
    /// modify the diagonal loop).
    #[test]
    fn non_diagonal_paths_identical_across_variants() {
        let cur = textured_plane(176, 48, 5);
        let prev = textured_plane(176, 48, 6);
        for interp in 0..3u32 {
            let mut per_variant = Vec::new();
            for variant in Variant::all() {
                let code = build_getsad(variant, &MachineConfig::st200());
                let mut m = machine_with_rfu();
                let cur_base = load_plane(&mut m, &cur);
                let prev_base = load_plane(&mut m, &prev);
                let _ = run_kernel(
                    &mut m,
                    &code,
                    cur_base + 16 * 176 + 16,
                    prev_base + 9 * 176 + 22,
                    interp,
                );
                let before = m.cycle();
                let _ = run_kernel(
                    &mut m,
                    &code,
                    cur_base + 16 * 176 + 16,
                    prev_base + 9 * 176 + 22,
                    interp,
                );
                per_variant.push(m.cycle() - before);
            }
            // A2/A3 share ORIG's none/h/v bodies; A1 too.
            assert!(
                per_variant.windows(2).all(|w| w[0] == w[1]),
                "interp {interp}: {per_variant:?}"
            );
        }
    }

    #[test]
    fn kernel_fits_the_instruction_cache() {
        for variant in Variant::all() {
            let code = build_getsad(variant, &MachineConfig::st200());
            // 128 KB I$; the paper says the whole application fits.
            assert!(code.size_words() * 4 < 16 * 1024, "{:?}", variant);
        }
    }
}
