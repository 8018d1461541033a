//! Operation semantics and the one executor both engines share.
//!
//! Each opcode's semantics is written once. The scalar operations with a
//! typed micro-op are the named functions below (the SIMD ones live in
//! [`rvliw_isa::simd`]); the typed arms of `exec` and the long-tail
//! [`eval`] both call them. Branch-register sources reach them resolved
//! to `0`/`1`, so every operand is a `u32`.
//!
//! `exec` runs one lowered `MicroOp` ([`crate::decode`]) against the
//! machine. Three drivers call it: the block loop of [`crate::block`] and
//! the `issue` step of both substrates in [`crate::substrate`]. It is
//! generic over the tracer and `#[inline(always)]`, so under
//! [`NullTracer`](rvliw_trace::NullTracer) each arm compiles to the bare
//! state transition, and its `DIRECT` parameter picks the write-commit
//! policy at compile time: in place (the block engine's hazard-free
//! bundles) or deferred to retirement (every other bundle, and always on
//! the interpreter).

use rvliw_isa::{simd, Dest, Gpr, Opcode, MAX_SRCS};
use rvliw_trace::{StallCause, Tracer};

use crate::decode::{DSrc, MicroOp};
use crate::machine::{Machine, SimError, MAX_ISSUE};

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

/// The exact number of sources a side-effect-free opcode takes, or `None`
/// for operations with side effects (memory, control flow, RFU), which the
/// machine executes itself. `nop` takes none.
#[must_use]
pub fn arity(opcode: Opcode) -> Option<usize> {
    use rvliw_isa::FuClass;
    use Opcode::*;
    match opcode {
        Nop => Some(0),
        Mov | Sxtb | Sxth | Zxtb | Zxth | Rnd2 => Some(1),
        Insb | Slct | Dadj4 | Hadd2 => Some(3),
        _ => matches!(opcode.class(), FuClass::Alu | FuClass::Mul).then_some(2),
    }
}

/// Evaluates a side-effect-free operation over its resolved sources
/// (unused ones are ignored) and returns the destination value; a
/// comparison yields `0`/`1`. `hadd2`'s byte offset must already be in
/// `0..=5`, which the lowering checks.
///
/// # Panics
///
/// Panics for an opcode [`arity`] does not list: the machine executes
/// those, and the lowering never sends one here.
#[must_use]
pub fn eval(opcode: Opcode, [a, b, c]: [u32; 3]) -> u32 {
    use Opcode::*;
    match opcode {
        Add => add(a, b),
        Sub => sub(a, b),
        And => a & b,
        Andc => a & !b,
        Or => or(a, b),
        Xor => a ^ b,
        Nor => !(a | b),
        Sll => simd::sll(a, b),
        Srl => simd::srl(a, b),
        Sra => simd::sra(a, b),
        Min => (a as i32).min(b as i32) as u32,
        Max => (a as i32).max(b as i32) as u32,
        Minu => a.min(b),
        Maxu => a.max(b),
        Mov => mov(a),
        Sxtb => a as u8 as i8 as i32 as u32,
        Sxth => a as u16 as i16 as i32 as u32,
        Zxtb => a & 0xff,
        Zxth => a & 0xffff,
        Extbu => extbu(a, b),
        // insb rd = rs1 with byte<c> := low8(rs2)
        Insb => {
            let lane = c & 3;
            let mask = 0xffu32 << (8 * lane);
            (a & !mask) | ((b & 0xff) << (8 * lane))
        }
        // slct rd = b ? rs1 : rs2 — `a` is the resolved branch register.
        Slct => {
            if a != 0 {
                b
            } else {
                c
            }
        }
        CmpEq => u32::from(a == b),
        CmpNe => u32::from(cmpne(a, b)),
        CmpLt => u32::from((a as i32) < (b as i32)),
        CmpLe => u32::from((a as i32) <= (b as i32)),
        CmpGt => u32::from((a as i32) > (b as i32)),
        CmpGe => u32::from((a as i32) >= (b as i32)),
        CmpLtu => u32::from(a < b),
        CmpLeu => u32::from(a <= b),
        CmpGtu => u32::from(a > b),
        CmpGeu => u32::from(a >= b),
        Mul => a.wrapping_mul(b),
        Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        Mull16 => ((a as u16 as i16 as i32).wrapping_mul(b as i32)) as u32,
        Add4 => simd::add4(a, b),
        Sub4 => simd::sub4(a, b),
        Adds4u => simd::adds4u(a, b),
        Subs4u => simd::subs4u(a, b),
        Avg4 => simd::avg4(a, b),
        Avg4r => simd::avg4r(a, b),
        Absd4 => simd::absd4(a, b),
        Sad4 => simd::sad4(a, b),
        Max4u => simd::max4u(a, b),
        Min4u => simd::min4u(a, b),
        Avgh4 => simd::avgh4(a, b),
        Lsbh4 => simd::lsbh4(a, b),
        Rfix4 => simd::rfix4(a, b),
        Dadj4 => simd::dadj4(a, b, c),
        Hadd2 => simd::hadd2(a, b, c),
        Rnd2 => simd::rnd2(a),
        Pack4 => simd::pack4(a, b),
        Nop => 0,
        _ => panic!("{opcode} has side effects; the machine executes it"),
    }
}

/// What a bundle's exec phase leaves for retirement: the register writes
/// it deferred, the taken control transfer, and whether it halted.
#[derive(Debug)]
pub struct Pending {
    writes: [(Dest, u32, u64); MAX_ISSUE],
    nwrites: usize,
    pub(crate) next_pc: Option<usize>,
    pub(crate) halted: bool,
}

impl Pending {
    pub(crate) fn new() -> Self {
        Pending {
            writes: [(Dest::None, 0, 0); MAX_ISSUE],
            nwrites: 0,
            next_pc: None,
            halted: false,
        }
    }

    /// Empties the record for the next bundle. The write slots are reused
    /// without clearing: only `..nwrites` is ever read back.
    #[inline(always)]
    pub(crate) fn reset(&mut self) {
        self.nwrites = 0;
        self.next_pc = None;
        self.halted = false;
    }

    /// Commits the deferred writes in issue order.
    #[inline(always)]
    pub(crate) fn write_back(&self, m: &mut Machine) {
        for &(dest, value, ready) in &self.writes[..self.nwrites] {
            m.commit(dest, value, ready);
        }
    }

    /// Commits `value` to `dest` now (`DIRECT`) or at write-back.
    #[inline(always)]
    fn put<const DIRECT: bool>(&mut self, m: &mut Machine, dest: Dest, value: u32, ready: u64) {
        if DIRECT {
            m.commit(dest, value, ready);
        } else {
            self.writes[self.nwrites] = (dest, value, ready);
            self.nwrites += 1;
        }
    }

    /// [`Pending::put`] to a non-zero general register.
    #[inline(always)]
    fn gpr<const DIRECT: bool>(&mut self, m: &mut Machine, d: Gpr, value: u32, ready: u64) {
        if DIRECT {
            m.gpr[d.index() as usize] = value;
            m.gpr_ready[d.index() as usize] = ready;
        } else {
            self.put::<false>(m, Dest::Gpr(d), value, ready);
        }
    }
}

/// The value of a lowered source against the current register state.
#[inline(always)]
fn val(m: &Machine, s: DSrc) -> u32 {
    match s {
        DSrc::Gpr(i) => m.gpr[i as usize],
        DSrc::Br(i) => u32::from(m.br[i as usize]),
        DSrc::Imm(v) => v,
    }
}

/// `addr[0] + addr[1]`, wrapping.
#[inline(always)]
fn addr(m: &Machine, [base, off]: [DSrc; 2]) -> u32 {
    val(m, base).wrapping_add(val(m, off))
}

/// An RFU operation's source values (the first `srcs.len()` are live).
#[inline(always)]
fn rfu_srcs(m: &Machine, srcs: &[DSrc]) -> [u32; MAX_SRCS] {
    let mut v = [0u32; MAX_SRCS];
    for (v, &s) in v.iter_mut().zip(srcs) {
        *v = val(m, s);
    }
    v
}

fn rfu_error(e: rvliw_rfu::RfuError) -> SimError {
    SimError::Rfu(e.to_string())
}

/// A data load at cycle `*cyc`; a miss stalls the whole machine.
#[inline(always)]
fn load<T: Tracer + ?Sized>(
    m: &mut Machine,
    addr: u32,
    size: u32,
    pc: usize,
    cyc: &mut u64,
    tracer: &mut T,
) -> Result<u32, SimError> {
    let acc = m.mem.read_traced(addr, size, *cyc, tracer)?;
    if acc.stall > 0 {
        tracer.stall(*cyc, pc, StallCause::DCache, acc.stall);
    }
    *cyc += acc.stall;
    Ok(acc.value)
}

/// Executes one operation of bundle `pc` at cycle `*cyc`, reading
/// registers as they stand, adding memory, reconfiguration and RFU stalls
/// to `*cyc`, and committing its result per `DIRECT` (deferred writes and
/// control flow go to `out`). An error leaves `*cyc` at the stalls taken
/// before it.
#[inline(always)]
pub(crate) fn exec<const DIRECT: bool, T: Tracer + ?Sized>(
    m: &mut Machine,
    op: &MicroOp,
    pc: usize,
    cyc: &mut u64,
    out: &mut Pending,
    tracer: &mut T,
) -> Result<(), SimError> {
    // A general-register source, and a commit to a typed destination.
    macro_rules! r {
        ($i:expr) => {
            m.gpr[$i as usize]
        };
    }
    macro_rules! gpr {
        ($d:expr, $v:expr, $ready:expr) => {{
            let v = $v;
            out.gpr::<DIRECT>(m, $d, v, $ready);
        }};
    }
    let now = *cyc;
    match *op {
        MicroOp::AddGG { a, b, d, lat } => gpr!(d, add(r!(a), r!(b)), now + u64::from(lat)),
        MicroOp::AddGI { a, imm, d, lat } => gpr!(d, add(r!(a), imm), now + u64::from(lat)),
        MicroOp::SubGI { a, imm, d, lat } => gpr!(d, sub(r!(a), imm), now + u64::from(lat)),
        MicroOp::OrGG { a, b, d, lat } => gpr!(d, or(r!(a), r!(b)), now + u64::from(lat)),
        MicroOp::SllGG { a, b, d, lat } => gpr!(d, simd::sll(r!(a), r!(b)), now + u64::from(lat)),
        MicroOp::SllGI { a, imm, d, lat } => gpr!(d, simd::sll(r!(a), imm), now + u64::from(lat)),
        MicroOp::SrlGG { a, b, d, lat } => gpr!(d, simd::srl(r!(a), r!(b)), now + u64::from(lat)),
        MicroOp::SrlGI { a, imm, d, lat } => gpr!(d, simd::srl(r!(a), imm), now + u64::from(lat)),
        MicroOp::ExtbuGI { a, imm, d, lat } => gpr!(d, extbu(r!(a), imm), now + u64::from(lat)),
        MicroOp::MovG { a, d, lat } => gpr!(d, mov(r!(a)), now + u64::from(lat)),
        MicroOp::Sad4GG { a, b, d, lat } => gpr!(d, simd::sad4(r!(a), r!(b)), now + u64::from(lat)),
        MicroOp::Avg4rGG { a, b, d, lat } => {
            gpr!(d, simd::avg4r(r!(a), r!(b)), now + u64::from(lat))
        }
        MicroOp::Hadd2GGI { a, b, k, d, lat } => {
            gpr!(d, simd::hadd2(r!(a), r!(b), k), now + u64::from(lat));
        }
        MicroOp::Rnd2G { a, d, lat } => gpr!(d, simd::rnd2(r!(a)), now + u64::from(lat)),
        MicroOp::Pack4GG { a, b, d, lat } => {
            gpr!(d, simd::pack4(r!(a), r!(b)), now + u64::from(lat))
        }
        MicroOp::CmpNeGI { a, imm, d, lat } => {
            let v = u32::from(cmpne(r!(a), imm));
            out.put::<DIRECT>(m, Dest::Br(d), v, now + u64::from(lat));
        }
        MicroOp::LoadW { base, off, d, lat } => {
            let v = load(m, r!(base).wrapping_add(off), 4, pc, cyc, tracer)?;
            gpr!(d, v, *cyc + u64::from(lat));
        }
        MicroOp::Pure {
            opcode,
            srcs,
            dest,
            lat,
        } => {
            let v = eval(opcode, srcs.map(|s| val(m, s)));
            out.put::<DIRECT>(m, dest, v, now + u64::from(lat));
        }
        MicroOp::Load {
            addr: a,
            size,
            sext_from,
            dest,
            lat,
        } => {
            let v = load(m, addr(m, a), u32::from(size), pc, cyc, tracer)?;
            let v = match sext_from {
                16 => v as u16 as i16 as i32 as u32,
                8 => v as u8 as i8 as i32 as u32,
                _ => v,
            };
            out.put::<DIRECT>(m, dest, v, *cyc + u64::from(lat));
        }
        MicroOp::Store {
            val: v,
            addr: a,
            size,
        } => {
            let (a, v) = (addr(m, a), val(m, v));
            let acc = m.mem.write_traced(a, u32::from(size), v, now, tracer)?;
            if acc.stall > 0 {
                tracer.stall(now, pc, StallCause::DCache, acc.stall);
            }
            *cyc += acc.stall;
        }
        MicroOp::Pft { addr: a } => {
            let _ = m.mem.prefetch_traced(addr(m, a), now, tracer);
        }
        MicroOp::BrCond {
            cond,
            on_true,
            target,
        } => {
            if (val(m, cond) != 0) == on_true {
                let t = target.ok_or(SimError::UnresolvedTarget { pc })?;
                out.next_pc = Some(t as usize);
            }
        }
        MicroOp::Goto { target } => out.next_pc = Some(target as usize),
        MicroOp::Call { target } => {
            out.put::<DIRECT>(m, Dest::Gpr(Gpr::LINK), (pc + 1) as u32, now + 1);
            out.next_pc = Some(target as usize);
        }
        MicroOp::Ret { target } => out.next_pc = Some(val(m, target) as usize),
        MicroOp::Halt => out.halted = true,
        MicroOp::Nop => {}
        MicroOp::RfuInit { cfg } => {
            let penalty = m.rfu.init_traced(cfg, now, tracer).map_err(rfu_error)?;
            if penalty > 0 {
                tracer.stall(now, pc, StallCause::Reconfig, penalty);
            }
            *cyc += penalty;
        }
        MicroOp::RfuSend { cfg, ref srcs } => {
            let v = rfu_srcs(m, srcs);
            m.rfu
                .send_traced(cfg, &v[..srcs.len()], now, tracer)
                .map_err(rfu_error)?;
        }
        MicroOp::RfuExec {
            cfg,
            ref srcs,
            dest,
            lat,
        } => {
            let v = rfu_srcs(m, srcs);
            let res = m
                .rfu
                .exec_traced(cfg, &v[..srcs.len()], &mut m.mem, now, tracer)
                .map_err(rfu_error)?;
            if res.stall > 0 {
                tracer.stall(now, pc, StallCause::RfuLoop, res.stall);
            }
            // Memory stalls freeze the whole machine, as usual.
            *cyc += res.stall;
            let ready = *cyc + res.busy.max(u64::from(lat));
            m.rfu_busy_until = ready;
            out.put::<DIRECT>(m, dest, res.value, ready);
        }
        MicroOp::RfuPref { cfg, addr: a } => {
            m.rfu
                .pref_traced(cfg, val(m, a), &mut m.mem, now, tracer)
                .map_err(rfu_error)?;
        }
        MicroOp::Unresolved => return Err(SimError::UnresolvedTarget { pc }),
        MicroOp::Undecodable { ref what } => {
            return Err(SimError::Undecodable { what: what.clone() })
        }
    }
    Ok(())
}

/// Executes a whole bundle's operations in issue order (see [`exec`]).
#[inline(always)]
pub(crate) fn exec_bundle<const DIRECT: bool, T: Tracer + ?Sized>(
    m: &mut Machine,
    ops: &[MicroOp],
    pc: usize,
    cyc: &mut u64,
    out: &mut Pending,
    tracer: &mut T,
) -> Result<(), SimError> {
    for op in ops {
        exec::<DIRECT, T>(m, op, pc, cyc, out, tracer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval2(opcode: Opcode, a: u32, b: u32) -> u32 {
        eval(opcode, [a, b, 0])
    }

    #[test]
    fn scalar_arithmetic() {
        assert_eq!(eval2(Opcode::Add, 3, 4), 7);
        assert_eq!(eval2(Opcode::Sub, 3, 4), u32::MAX);
        assert_eq!(eval2(Opcode::Min, u32::MAX, 1), u32::MAX); // signed -1 < 1
        assert_eq!(eval2(Opcode::Minu, u32::MAX, 1), 1);
    }

    #[test]
    fn extract_insert_bytes() {
        let w = 0x4433_2211;
        assert_eq!(eval2(Opcode::Extbu, w, 0), 0x11);
        assert_eq!(eval2(Opcode::Extbu, w, 3), 0x44);
        assert_eq!(eval(Opcode::Insb, [w, 0xaa, 1]), 0x4433_aa11);
    }

    #[test]
    fn select_uses_condition() {
        assert_eq!(eval(Opcode::Slct, [1, 10, 20]), 10);
        assert_eq!(eval(Opcode::Slct, [0, 10, 20]), 20);
    }

    #[test]
    fn compares_signed_vs_unsigned() {
        assert_eq!(eval2(Opcode::CmpLt, u32::MAX, 0), 1); // -1 < 0
        assert_eq!(eval2(Opcode::CmpLtu, u32::MAX, 0), 0);
    }

    #[test]
    fn multiply_high_part() {
        assert_eq!(eval2(Opcode::Mulh, 0x8000_0000, 2), u32::MAX); // -2^31 * 2 >> 32 = -1
        assert_eq!(eval2(Opcode::Mul, 7, 6), 42);
    }

    #[test]
    fn sign_extensions() {
        assert_eq!(eval2(Opcode::Sxtb, 0x80, 0), 0xffff_ff80);
        assert_eq!(eval2(Opcode::Sxth, 0x8000, 0), 0xffff_8000);
        assert_eq!(eval2(Opcode::Zxtb, 0xabc, 0), 0xbc);
    }

    #[test]
    #[should_panic(expected = "side effects")]
    fn memory_ops_rejected() {
        let _ = eval2(Opcode::Ldw, 0, 0);
    }

    #[test]
    fn arity_covers_exactly_the_side_effect_free_opcodes() {
        use rvliw_isa::FuClass;
        for &op in Opcode::all() {
            let side_effects = matches!(op.class(), FuClass::Mem | FuClass::Branch | FuClass::Rfu);
            assert_eq!(arity(op).is_none(), side_effects, "{op}");
        }
    }
}
