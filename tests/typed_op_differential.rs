//! Per-operation differential test of the simulator's micro-ops.
//!
//! The lowering turns the opcodes the paper kernels issue most (`add`,
//! `sub`, `or`, `sll`, `srl`, `extbu`, `mov`, `sad4`, `avg4r`, `hadd2`,
//! `rnd2`, `pack4`, `cmpne` to a branch register, `ldw` and the RFU
//! operations) into one typed micro-op each and every other pure
//! operation into one long-tail micro-op, and all three engines (the
//! pinned interpreter, the block engine behind `ExecBackend::Auto` and
//! the scalar substrate) run them through one executor. Each test here
//! builds a one-operation program (`movi` operands, the operation,
//! `halt`) and runs it on all three: the two VLIW engines must agree on
//! every general and branch register and the `RunSummary` (or the error),
//! the scalar substrate on the registers and the error.
//!
//! Because the engines share the lowering, their agreement cannot catch
//! a wrong lowering or a wrong evaluator. So every pure opcode is also
//! checked against `reference_ops`, a verbatim copy of the closure table
//! the interpreter evaluated before the engines shared one lowering.

mod reference_ops;

use proptest::prelude::*;
use rvliw_asm::{schedule_st200, Builder, Code};
use rvliw_isa::{Br, Dest, FuClass, Gpr, MachineConfig, Op, Opcode, Src, Substrate};
use rvliw_mem::MemConfig;
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
    observe_on(code, Substrate::Vliw4, backend)
}

fn observe_on(code: &Code, substrate: Substrate, backend: ExecBackend) -> Observed {
    let mut m = Machine::new(
        MachineConfig::st200().with_substrate(substrate),
        MemConfig::st200(),
    );
    m.rfu = Rfu::with_case_study_configs(MeLoopCfg::new(RfuBandwidth::B1x32, 1, 176));
    m.backend = backend;
    let r = m.run(code);
    if substrate == Substrate::Vliw4 && backend == ExecBackend::Auto {
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
/// checks all three engines agree.
fn check(label: &str, abc: (u32, u32, u32), body: impl FnOnce(&mut Builder)) {
    let _ = run_all(label, abc, body);
}

/// [`check`], returning what the interpreter observed.
fn run_all(label: &str, (a, b, c): (u32, u32, u32), body: impl FnOnce(&mut Builder)) -> Observed {
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
    // The scalar substrate issues the same operations one per cycle: its
    // cycle counts differ, its registers and errors may not.
    let scalar = observe_on(&code, Substrate::ScalarInOrder, ExecBackend::Auto);
    assert_eq!(
        (interp.0.as_ref().err(), &interp.1, &interp.2),
        (scalar.0.as_ref().err(), &scalar.1, &scalar.2),
        "{label} on ({a:#x}, {b:#x}, {c:#x}): scalar substrate diverges"
    );
    interp
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

/// The branch register `slct` selects on.
const BS: Br = Br::new(2);

/// The source count of each pure opcode, written out here rather than
/// taken from the simulator's own table.
fn sources(opc: Opcode) -> usize {
    use Opcode::*;
    match opc {
        Mov | Sxtb | Sxth | Zxtb | Zxth | Rnd2 => 1,
        Insb | Slct | Dadj4 | Hadd2 => 3,
        _ => 2,
    }
}

/// Every opcode the reference evaluates, except `nop`, which has no
/// result.
fn pure_opcodes() -> impl Iterator<Item = Opcode> {
    Opcode::all()
        .iter()
        .copied()
        .filter(|&o| o != Opcode::Nop && reference_ops::pure_fn(o).is_some())
}

/// Runs `opc` over the values `(x, y, z)` in `$r1..$r3`, once with every
/// source a register and once with the last source the immediate `imm`,
/// into a general register and (for compares) a branch register, and
/// checks every engine's result against the reference. `slct` selects on
/// `$b2 = (x != 0)`; `hadd2`'s byte offset is the immediate `z % 6`.
fn check_against_reference(opc: Opcode, (x, y, z): (u32, u32, u32), imm: i32) {
    let f = reference_ops::pure_fn(opc).expect("a pure opcode");
    let n = sources(opc);
    let mut srcs: Vec<Src> = [A, B, C][..n].iter().map(|&r| r.into()).collect();
    let mut vals = [x, y, z][..n].to_vec();
    match opc {
        Opcode::Slct => {
            srcs[0] = BS.into();
            vals[0] = u32::from(x != 0);
        }
        Opcode::Hadd2 => {
            srcs[2] = Src::Imm((z % 6) as i32);
            vals[2] = z % 6;
        }
        _ => {}
    }
    let mut shapes = vec![(srcs.clone(), vals.clone())];
    if opc != Opcode::Hadd2 {
        srcs[n - 1] = Src::Imm(imm);
        vals[n - 1] = imm as u32;
        shapes.push((srcs, vals));
    }
    for (srcs, vals) in shapes {
        let want = f(&vals);
        let label = format!("{opc} {srcs:?}");
        let mut dests = vec![Dest::Gpr(D)];
        if opc.is_compare() {
            dests.push(Dest::Br(BD));
        }
        for dest in dests {
            let (r, gprs, brs) = run_all(&label, (x, y, z), |b| {
                if opc == Opcode::Slct {
                    b.cmpne_br(BS, A, 0);
                }
                b.op(Op::new(opc, dest, &srcs));
            });
            assert!(r.is_ok(), "{label}: {r:?}");
            let got = match dest {
                Dest::Br(d) => u32::from(brs[d.index() as usize]),
                _ => gprs[D.index() as usize],
            };
            let want = if matches!(dest, Dest::Br(_)) {
                u32::from(want != 0)
            } else {
                want
            };
            assert_eq!(
                got, want,
                "{label} -> {dest:?} on ({x:#x}, {y:#x}, {z:#x}): reference gives {want:#x}"
            );
        }
    }
}

#[test]
fn every_pure_opcode_matches_the_reference_on_edge_values() {
    assert!(
        pure_opcodes().count() > 50,
        "the reference table went missing"
    );
    for opc in pure_opcodes() {
        assert!(matches!(opc.class(), FuClass::Alu | FuClass::Mul), "{opc}");
        for (i, &x) in EDGES.iter().enumerate() {
            for (j, &y) in EDGES.iter().enumerate() {
                let z = EDGES[(i + j) % EDGES.len()];
                let imm = IMM_EDGES[(i * EDGES.len() + j) % IMM_EDGES.len()];
                check_against_reference(opc, (x, y, z), imm);
            }
        }
    }
}

/// Malformed operations (a `hadd2` offset outside `0..=5` or in a
/// register, a missing source) fail with the same `SimError::Undecodable`
/// naming the opcode and the operand on every engine.
#[test]
fn malformed_operations_fail_alike_on_every_engine() {
    use Opcode::{Add, Hadd2, Ldw};
    for (bad, want) in [
        (
            Op::new(Hadd2, D.into(), &[A.into(), B.into(), Src::Imm(6)]),
            "hadd2: byte offset operand 3 must be an immediate in 0..=5, got `6`",
        ),
        (
            Op::new(Hadd2, D.into(), &[A.into(), B.into(), C.into()]),
            "hadd2: byte offset operand 3 must be an immediate in 0..=5, got `$r3`",
        ),
        (
            Op::new(Add, D.into(), &[A.into()]),
            "add: source operand 2 is missing",
        ),
        (
            Op::new(Ldw, D.into(), &[]),
            "ldw: source operand 1 is missing",
        ),
    ] {
        let (r, ..) = run_all(want, (5, 7, 1), |b| b.op(bad));
        assert_eq!(
            r.map(|_| ()),
            Err(SimError::Undecodable { what: want.into() })
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn typed_ops_agree_on_random_operands(x in any::<u32>(), y in any::<u32>(), imm in any::<i32>()) {
        check_gg(x, y);
        check_gi(x, imm);
        check_g(y);
    }

    #[test]
    fn pure_ops_match_the_reference_on_random_operands(
        x in any::<u32>(),
        y in any::<u32>(),
        z in any::<u32>(),
        imm in any::<i32>(),
    ) {
        for opc in pure_opcodes() {
            check_against_reference(opc, (x, y, z), imm);
        }
    }
}
