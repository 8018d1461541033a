//! Per-operation differential test of the block engine's typed micro-ops.
//!
//! The block engine lowers the opcodes the paper kernels issue most
//! (`add`, `sub`, `or`, `sll`, `srl`, `extbu`, `mov`, `sad4`, `avg4r`,
//! `hadd2`, `rnd2`, `pack4`, `cmpne` to a branch register, `ldw` and the
//! RFU operations) to one typed `match` arm each.
//! The interpreter (`ExecBackend::Interpreter`) evaluates the same
//! operations through `exec::pure_fn` and `Machine::exec_op`. Each test
//! here builds a one-operation program (`movi` operands, the operation,
//! `halt`), runs it on both engines, and compares the destination
//! register, every general and branch register and the `RunSummary` (or
//! the error).

use proptest::prelude::*;
use rvliw_asm::{schedule_st200, Builder, Code};
use rvliw_isa::{Br, Gpr, Op, Opcode, Src};
use rvliw_rfu::{cfgs, MeLoopCfg, Rfu, RfuBandwidth};
use rvliw_sim::{ExecBackend, Machine, RunSummary, SimError};

const A: Gpr = Gpr::new(1);
const B: Gpr = Gpr::new(2);
const C: Gpr = Gpr::new(3);
const D: Gpr = Gpr::new(4);
const BD: Br = Br::new(1);

/// Operand edge values: zero, all ones, the sign bit, shift amounts at
/// and past the word width, and all-zero / all-ones byte lanes.
const EDGES: [u32; 10] = [
    0,
    1,
    u32::MAX,
    0x8000_0000,
    31,
    32,
    33,
    0xff,
    0x00ff_00ff,
    0xff00_ff00,
];

/// Immediate edge values (sign-extended to the datapath width): the same
/// set plus lanes past 3 for `extbu`.
const IMM_EDGES: [i32; 12] = [0, 1, 2, 3, 4, 7, 31, 32, 33, 255, -1, i32::MIN];

type Observed = (Result<RunSummary, SimError>, Vec<u32>, Vec<bool>);

fn observe(code: &Code, backend: ExecBackend) -> Observed {
    let mut m = Machine::st200();
    m.rfu = Rfu::with_case_study_configs(MeLoopCfg::new(RfuBandwidth::B1x32, 1, 176));
    m.backend = backend;
    let r = m.run(code);
    if backend == ExecBackend::Auto {
        assert_eq!(
            m.backend_stats().block_runs,
            1,
            "Auto skipped the block engine"
        );
    }
    let gprs = (0..rvliw_isa::NUM_GPRS as u8)
        .map(|i| m.gpr(Gpr::new(i)))
        .collect();
    let brs = (0..rvliw_isa::NUM_BRS as u8)
        .map(|i| m.br(Br::new(i)))
        .collect();
    (r, gprs, brs)
}

/// Builds `movi a, b, c`, the operation(s) `body` emits, `halt`, and
/// checks both engines agree.
fn check(label: &str, (a, b, c): (u32, u32, u32), body: impl FnOnce(&mut Builder)) {
    let mut bld = Builder::new("one-op");
    bld.movi(A, a as i32);
    bld.movi(B, b as i32);
    bld.movi(C, c as i32);
    body(&mut bld);
    bld.halt();
    let code = schedule_st200(&bld.build()).expect("one-op program schedules");
    let interp = observe(&code, ExecBackend::Interpreter);
    let block = observe(&code, ExecBackend::Auto);
    assert_eq!(
        interp, block,
        "{label} on ({a:#x}, {b:#x}, {c:#x}): engines diverge"
    );
}

fn op(b: &mut Builder, opc: Opcode, dest: Gpr, srcs: &[Src]) {
    b.op(Op::new(opc, dest.into(), srcs));
}

/// Every register-register typed shape over operands `(x, y)`.
fn check_gg(x: u32, y: u32) {
    let v = (x, y, 0);
    check("add", v, |b| b.add(D, A, B));
    check("or", v, |b| b.or(D, A, B));
    check("sll", v, |b| b.sll(D, A, B));
    check("srl", v, |b| b.srl(D, A, B));
    check("sad4", v, |b| b.sad4(D, A, B));
    check("avg4r", v, |b| b.avg4r(D, A, B));
    check("pack4", v, |b| {
        op(b, Opcode::Pack4, D, &[A.into(), B.into()])
    });
    for k in 0..=5 {
        check("hadd2", v, |b| {
            op(b, Opcode::Hadd2, D, &[A.into(), B.into(), Src::Imm(k)]);
        });
    }
}

/// Every register-immediate typed shape over `x` and immediate `imm`.
fn check_gi(x: u32, imm: i32) {
    let v = (x, 0, 0);
    check("add imm", v, |b| b.add(D, A, imm));
    check("sub imm", v, |b| b.sub(D, A, imm));
    check("sll imm", v, |b| b.sll(D, A, imm));
    check("srl imm", v, |b| b.srl(D, A, imm));
    check("extbu", v, |b| b.extbu(D, A, imm));
    check("cmpne imm", v, |b| b.cmpne_br(BD, A, imm));
}

/// The one-source typed shapes.
fn check_g(x: u32) {
    let v = (x, 0, 0);
    check("mov", v, |b| b.mov(D, A));
    check("rnd2", v, |b| op(b, Opcode::Rnd2, D, &[A.into()]));
}

#[test]
fn register_register_ops_agree_on_edge_values() {
    for &x in &EDGES {
        for &y in &EDGES {
            check_gg(x, y);
        }
    }
}

#[test]
fn register_immediate_ops_agree_on_edge_values() {
    for &x in &EDGES {
        for &imm in &IMM_EDGES {
            check_gi(x, imm);
        }
        check_g(x);
    }
}

#[test]
fn compares_to_a_general_register_agree() {
    // A compare into a GPR keeps the generic lowering; its result must
    // still match.
    for &x in &EDGES {
        check("cmpne to gpr", (x, 0, 0), |b| {
            op(b, Opcode::CmpNe, D, &[A.into(), Src::Imm(0)]);
        });
    }
}

#[test]
fn writes_to_r0_are_discarded_on_both_engines() {
    check("add to r0", (5, 6, 0), |b| b.add(Gpr::ZERO, A, B));
    check("ldw to r0", (0x2_0000, 0, 0), |b| b.ldw(Gpr::ZERO, A, 0));
}

#[test]
fn word_loads_agree_including_the_error_path() {
    for &(base, off) in &[
        (0x2_0000u32, 0i32),
        (0x2_0000, 4),
        (0x2_0040, -8),
        // Outside the simulated memory: both engines return the same
        // `SimError::Mem` with the same partial statistics.
        (0x7f00_0000, 0),
    ] {
        check("stw + ldw", (base, 0xdead_beef, 0), |b| {
            if base < 0x100_0000 {
                b.stw(B, A, off);
            }
            b.ldw(D, A, off);
        });
    }
}

#[test]
fn rfu_short_ops_agree() {
    // A2's diagonal interpolation: two sends of two words, then exec.
    for align in 0..4 {
        check("diag4", (0x0102_0304, 0xfffe_fdfc, align), |b| {
            b.rfu_init(cfgs::DIAG4);
            b.rfu_send(cfgs::DIAG4, &[A, B]);
            b.rfu_send(cfgs::DIAG4, &[B, A]);
            b.rfu_exec(cfgs::DIAG4, D, &[C.into()]);
        });
    }
    // A3's 16-pixel form: ten words sent, then exec and a read-out.
    check("diag16", (0x8000_0001, 0x7f7f_7f7f, 2), |b| {
        for _ in 0..5 {
            b.rfu_send(cfgs::DIAG16, &[A, B]);
        }
        b.rfu_exec(cfgs::DIAG16, D, &[C.into()]);
        b.rfu_exec(cfgs::DIAG16_R1, Gpr::new(5), &[]);
    });
    // Too few operands sent: both engines fail the same way.
    check("diag4 underfed", (1, 2, 3), |b| {
        b.rfu_send(cfgs::DIAG4, &[A, B]);
        b.rfu_exec(cfgs::DIAG4, D, &[C.into()]);
    });
}

#[test]
fn rfu_prefetch_and_loop_agree() {
    check("pref + me loop", (0x2_0000, 0, 0x3_0000), |b| {
        b.rfu_pref(cfgs::PREF_REF, C);
        b.rfu_exec(cfgs::ME_LOOP, D, &[A.into(), B.into(), C.into()]);
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn typed_ops_agree_on_random_operands(x in any::<u32>(), y in any::<u32>(), imm in any::<i32>()) {
        check_gg(x, y);
        check_gi(x, imm);
        check_g(y);
    }
}
