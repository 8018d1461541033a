//! The pure-operation semantics as the simulator defined them before both
//! engines shared one lowering: the `pure_fn` closure table and the
//! helpers it calls, copied verbatim. The simulator now dispatches pure
//! operations through typed micro-ops and `rvliw_sim::exec::eval`; this
//! copy is the independent reference those are checked against, so a
//! lowering or dispatch bug cannot hide behind a shared definition.

#![allow(dead_code)]

use rvliw_isa::{simd, Opcode};

/// The signature of a lowered pure operation: resolved sources in, result
/// out.
pub type PureFn = fn(&[u32]) -> u32;

/// `add`: wrapping 32-bit sum.
#[inline(always)]
#[must_use]
pub fn add(a: u32, b: u32) -> u32 {
    a.wrapping_add(b)
}

/// `sub`: wrapping 32-bit difference.
#[inline(always)]
#[must_use]
pub fn sub(a: u32, b: u32) -> u32 {
    a.wrapping_sub(b)
}

/// `or`: bitwise or.
#[inline(always)]
#[must_use]
pub fn or(a: u32, b: u32) -> u32 {
    a | b
}

/// `mov`: the source, unchanged.
#[inline(always)]
#[must_use]
pub fn mov(a: u32) -> u32 {
    a
}

/// `extbu`: byte lane `lane & 3` of `a`, zero-extended.
#[inline(always)]
#[must_use]
pub fn extbu(a: u32, lane: u32) -> u32 {
    (a >> (8 * (lane & 3))) & 0xff
}

/// `cmpne`: inequality, as a branch-register truth value.
#[inline(always)]
#[must_use]
pub fn cmpne(a: u32, b: u32) -> bool {
    a != b
}

/// Evaluates a pure (non-memory, non-control, non-RFU) operation over its
/// resolved source values. Returns the destination value — a boolean result
/// for comparisons is `0`/`1`.
///
/// # Panics
///
/// Panics when called for an operation with side effects (loads, stores,
/// branches, RFU dispatch) — the machine handles those — or with too few
/// sources, which the assembler-built programs never produce.
#[must_use]
pub fn eval_pure(opcode: Opcode, s: &[u32]) -> u32 {
    match pure_fn(opcode) {
        Some(f) => f(s),
        None => panic!("{opcode} has side effects; handled by the machine"),
    }
}

/// The lowered evaluator for a pure opcode, or `None` for operations with
/// side effects (handled by the machine's exec phase). The pre-decoded
/// issue loop resolves this once per static operation instead of matching
/// on the opcode every cycle.
#[must_use]
pub fn pure_fn(opcode: Opcode) -> Option<PureFn> {
    use Opcode::*;
    Some(match opcode {
        Add => |s| add(s[0], s[1]),
        Sub => |s| sub(s[0], s[1]),
        And => |s| s[0] & s[1],
        Andc => |s| s[0] & !s[1],
        Or => |s| or(s[0], s[1]),
        Xor => |s| s[0] ^ s[1],
        Nor => |s| !(s[0] | s[1]),
        Sll => |s| simd::sll(s[0], s[1]),
        Srl => |s| simd::srl(s[0], s[1]),
        Sra => |s| simd::sra(s[0], s[1]),
        Min => |s| (s[0] as i32).min(s[1] as i32) as u32,
        Max => |s| (s[0] as i32).max(s[1] as i32) as u32,
        Minu => |s| s[0].min(s[1]),
        Maxu => |s| s[0].max(s[1]),
        Mov => |s| mov(s[0]),
        Sxtb => |s| s[0] as u8 as i8 as i32 as u32,
        Sxth => |s| s[0] as u16 as i16 as i32 as u32,
        Zxtb => |s| s[0] & 0xff,
        Zxth => |s| s[0] & 0xffff,
        Extbu => |s| extbu(s[0], s[1]),
        // insb rd = rs1 with byte<s[2]> := low8(rs2)
        Insb => |s| {
            let lane = s[2] & 3;
            let mask = 0xffu32 << (8 * lane);
            (s[0] & !mask) | ((s[1] & 0xff) << (8 * lane))
        },
        // slct rd = b ? rs1 : rs2 — s[0] is the resolved branch register.
        Slct => |s| if s[0] != 0 { s[1] } else { s[2] },
        CmpEq => |s| u32::from(s[0] == s[1]),
        CmpNe => |s| u32::from(cmpne(s[0], s[1])),
        CmpLt => |s| u32::from((s[0] as i32) < (s[1] as i32)),
        CmpLe => |s| u32::from((s[0] as i32) <= (s[1] as i32)),
        CmpGt => |s| u32::from((s[0] as i32) > (s[1] as i32)),
        CmpGe => |s| u32::from((s[0] as i32) >= (s[1] as i32)),
        CmpLtu => |s| u32::from(s[0] < s[1]),
        CmpLeu => |s| u32::from(s[0] <= s[1]),
        CmpGtu => |s| u32::from(s[0] > s[1]),
        CmpGeu => |s| u32::from(s[0] >= s[1]),
        Mul => |s| s[0].wrapping_mul(s[1]),
        Mulh => |s| (((s[0] as i32 as i64) * (s[1] as i32 as i64)) >> 32) as u32,
        Mull16 => |s| ((s[0] as u16 as i16 as i32).wrapping_mul(s[1] as i32)) as u32,
        Add4 => |s| simd::add4(s[0], s[1]),
        Sub4 => |s| simd::sub4(s[0], s[1]),
        Adds4u => |s| simd::adds4u(s[0], s[1]),
        Subs4u => |s| simd::subs4u(s[0], s[1]),
        Avg4 => |s| simd::avg4(s[0], s[1]),
        Avg4r => |s| simd::avg4r(s[0], s[1]),
        Absd4 => |s| simd::absd4(s[0], s[1]),
        Sad4 => |s| simd::sad4(s[0], s[1]),
        Max4u => |s| simd::max4u(s[0], s[1]),
        Min4u => |s| simd::min4u(s[0], s[1]),
        Avgh4 => |s| simd::avgh4(s[0], s[1]),
        Lsbh4 => |s| simd::lsbh4(s[0], s[1]),
        Rfix4 => |s| simd::rfix4(s[0], s[1]),
        Dadj4 => |s| simd::dadj4(s[0], s[1], s[2]),
        Hadd2 => |s| simd::hadd2(s[0], s[1], s[2]),
        Rnd2 => |s| simd::rnd2(s[0]),
        Pack4 => |s| simd::pack4(s[0], s[1]),
        Nop => |_| 0,
        _ => return None,
    })
}
