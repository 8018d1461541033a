//! Differential tests between the two execution backends: the pre-decoded
//! interpreter (pinned with `ExecBackend::Interpreter`) and the
//! block-compiled micro-trace engine (what `ExecBackend::Auto` picks for
//! an observation-free run) must be observationally indistinguishable. Randomly generated kernel programs
//! run through both and every observable — the `Result<RunSummary,
//! SimError>`, the final register file, branch registers and cycle
//! counter — must match bit for bit, cold and warm. The fallback paths
//! (mid-run control transfer into the middle of a block, armed fault
//! injection, an attached tracer) are exercised separately.

use proptest::prelude::*;
use rvliw_asm::{schedule_st200, Builder, Code};
use rvliw_fault::{FaultPlan, FaultProfile};
use rvliw_isa::{block_leaders, Br, Gpr, Op, Opcode, Src};
use rvliw_rfu::{cfgs, MeLoopCfg, Rfu, RfuBandwidth};
use rvliw_sim::{ExecBackend, Machine, RunSummary, SimError};
use rvliw_trace::CountingTracer;

/// Runs `code` twice (cold, then warm) on a fresh machine pinned to
/// `backend` and returns every observable of both runs.
#[allow(clippy::type_complexity)]
fn observe(
    code: &Code,
    backend: ExecBackend,
) -> Vec<(Result<RunSummary, SimError>, Vec<u32>, Vec<bool>, u64)> {
    let mut m = Machine::st200();
    m.rfu = Rfu::with_case_study_configs(MeLoopCfg::new(RfuBandwidth::B1x32, 1, 176));
    m.backend = backend;
    let observed = (0..2)
        .map(|_| {
            let r = m.run(code);
            let gprs = (0..rvliw_isa::NUM_GPRS as u8)
                .map(|i| m.gpr(Gpr::new(i)))
                .collect();
            let brs = (0..rvliw_isa::NUM_BRS as u8)
                .map(|i| m.br(Br::new(i)))
                .collect();
            (r, gprs, brs, m.cycle())
        })
        .collect();
    if backend == ExecBackend::Auto {
        // Otherwise the comparison would pit the interpreter against itself.
        assert_eq!(
            m.backend_stats().block_runs,
            2,
            "Auto skipped the block engine"
        );
    }
    observed
}

fn assert_backends_agree(code: &Code, label: &str) {
    let interp = observe(code, ExecBackend::Interpreter);
    let block = observe(code, ExecBackend::Auto);
    for (pass, (i, b)) in interp.iter().zip(&block).enumerate() {
        assert_eq!(i, b, "{label}: backends diverge on pass {pass}");
    }
}

/// Scratch memory base used by generated loads/stores, comfortably inside
/// the 4 MiB simulated RAM.
const MEM_BASE: i32 = 0x2_0000;

/// Registers the generator may target; the loop counter, memory base and
/// link register stay out of this pool.
const DATA_REGS: u8 = 8;

const COUNTER: Gpr = Gpr::new(10);
const BASE: Gpr = Gpr::new(11);

/// Emits one generated operation (or, for the RFU shapes, one short
/// operation sequence). `sel` picks the shape, the remaining
/// fields are raw material for registers, immediates and offsets — every
/// mapping is total, so any byte soup becomes a well-formed program.
fn emit(b: &mut Builder, sel: u8, x: u8, y: u8, z: u8, imm: i32) {
    let rd = Gpr::new(1 + x % DATA_REGS);
    let rs1 = Gpr::new(1 + y % DATA_REGS);
    let rs2 = Gpr::new(1 + z % DATA_REGS);
    let bd = Br::new(x % 4);
    // Word-aligned offset within a 4 KiB window of the scratch region.
    let woff = (imm & 0xffc).abs();
    match sel % 34 {
        0 => b.add(rd, rs1, rs2),
        1 => b.sub(rd, rs1, rs2),
        2 => b.and(rd, rs1, rs2),
        3 => b.or(rd, rs1, rs2),
        4 => b.xor(rd, rs1, rs2),
        5 => b.sll(rd, rs1, i32::from(z % 31)),
        6 => b.mul(rd, rs1, rs2),
        7 => b.min(rd, rs1, rs2),
        8 => b.max(rd, rs1, rs2),
        9 => b.sad4(rd, rs1, rs2),
        10 => b.movi(rd, imm),
        11 => b.cmplt_br(bd, rs1, rs2),
        12 => b.slct(rd, bd, rs1, rs2),
        13 => b.ldw(rd, BASE, woff),
        14 => b.ldbu(rd, BASE, imm.abs() & 0xfff),
        15 => {
            if x.is_multiple_of(2) {
                b.stw(rs1, BASE, woff);
            } else {
                b.stb(rs1, BASE, imm.abs() & 0xfff);
            }
        }
        // The opcodes and shapes the block engine lowers to typed
        // micro-ops, including shift amounts past the word width.
        16 => b.add(rd, rs1, imm),
        17 => b.sub(rd, rs1, imm),
        18 => b.sll(rd, rs1, rs2),
        19 => b.srl(rd, rs1, rs2),
        20 => b.srl(rd, rs1, i32::from(z % 40)),
        21 => b.extbu(rd, rs1, i32::from(z % 8)),
        22 => b.avg4r(rd, rs1, rs2),
        23 => b.op(Op::new(
            Opcode::Hadd2,
            rd.into(),
            &[rs1.into(), rs2.into(), Src::Imm(i32::from(z % 6))],
        )),
        24 => b.op(Op::new(Opcode::Rnd2, rd.into(), &[rs1.into()])),
        25 => b.op(Op::new(Opcode::Pack4, rd.into(), &[rs1.into(), rs2.into()])),
        26 => b.mov(rd, rs1),
        27 => b.cmpeq_br(bd, rs1, imm),
        28 => b.cmpne_br(bd, rs1, imm),
        29 => b.op(Op::new(Opcode::Minu, rd.into(), &[rs1.into(), rs2.into()])),
        30 => b.cmpeq_br(bd, rs1, rs2),
        31 => b.ldw(rd, BASE, woff),
        // The instruction-level RFU operations of A2 (four words sent,
        // then the diagonal interpolation) and A3 (ten words, then the
        // result and a read-out).
        32 => {
            b.rfu_send(cfgs::DIAG4, &[rs1, rs2]);
            b.rfu_send(cfgs::DIAG4, &[rs2, rd]);
            b.rfu_exec(cfgs::DIAG4, rd, &[rs1.into()]);
        }
        _ => {
            for _ in 0..5 {
                b.rfu_send(cfgs::DIAG16, &[rs1, rs2]);
            }
            b.rfu_exec(cfgs::DIAG16, rd, &[rs1.into()]);
            b.rfu_exec(cfgs::DIAG16_R1 + u16::from(z % 3), rs2, &[]);
        }
    }
}

/// Builds a terminating kernel: seeded registers, a bounded counted loop
/// around the generated body (so every branch shape is exercised on a
/// back edge), and an optional generated forward skip inside the body.
fn build_program(body: &[(u8, u8, u8, u8, i32)], iters: u8, skip_at: Option<usize>) -> Code {
    let mut b = Builder::new("prop-kernel");
    for i in 0..DATA_REGS {
        // Non-trivial seeds so arithmetic differences are visible.
        b.movi(Gpr::new(1 + i), i32::from(i) * 0x0101_0101 + 7);
    }
    b.movi(BASE, MEM_BASE);
    b.movi(COUNTER, i32::from(iters % 4) + 1);
    let top = b.label();
    b.bind(top);
    let skip = b.label();
    for (k, &(sel, x, y, z, imm)) in body.iter().enumerate() {
        if skip_at == Some(k) {
            // A forward conditional skip over the rest of the body: more
            // block boundaries, plus a not-taken/taken branch mix.
            b.cmplt_br(Br::new(3), Gpr::new(1 + x % DATA_REGS), COUNTER);
            b.br(Br::new(3), skip);
        }
        emit(&mut b, sel, x, y, z, imm);
    }
    b.bind(skip);
    b.subi(COUNTER, COUNTER, 1);
    b.cmpne_br(Br::new(0), COUNTER, 0);
    b.br(Br::new(0), top);
    b.halt();
    schedule_st200(&b.build()).expect("generated program schedules")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole differential property: random kernel programs produce
    /// bit-identical observables on both backends, cold and warm.
    #[test]
    fn backends_bit_identical_on_random_kernels(
        body in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), -4096i32..4096),
            1..24,
        ),
        iters in any::<u8>(),
        skip_sel in any::<u8>(),
    ) {
        let skip_at = (skip_sel % 3 == 0).then(|| usize::from(skip_sel) % body.len());
        let code = build_program(&body, iters, skip_at);
        assert_backends_agree(&code, "random kernel");
    }
}

#[test]
fn backends_agree_on_program_error_paths() {
    // A load far outside simulated memory: both backends must return the
    // same `SimError::Mem` with identical partial statistics and identical
    // register state (in particular, the erroring bundle's own staged
    // writes are discarded on both).
    let mut b = Builder::new("oob");
    b.movi(Gpr::new(1), 0x7f00_0000u32 as i32);
    b.addi(Gpr::new(2), Gpr::new(1), 1);
    b.ldw(Gpr::new(3), Gpr::new(1), 0);
    b.halt();
    let code = schedule_st200(&b.build()).expect("schedules");
    let interp = observe(&code, ExecBackend::Interpreter);
    let block = observe(&code, ExecBackend::Auto);
    assert!(
        matches!(interp[0].0, Err(SimError::Mem(_))),
        "expected a memory error, got {:?}",
        interp[0].0
    );
    assert_eq!(interp, block, "error-path observables diverge");
}

#[test]
fn mid_run_fallback_matches_interpreter() {
    // A computed `ret` into the middle of a straight-line run: the block
    // backend cannot resume there (the target is not a block leader), so
    // it must hand the pc back to the interpreter mid-run and still
    // produce bit-identical results.
    let build = |target: i32| {
        let mut b = Builder::new("midjump");
        b.movi(Gpr::LINK, target);
        b.ret();
        for i in 0..12 {
            b.addi(Gpr::new(1), Gpr::new(1), i);
        }
        b.halt();
        schedule_st200(&b.build()).expect("schedules")
    };
    // Two-pass: learn the bundle layout (identical for any immediate),
    // then aim the `ret` at the last non-leader bundle.
    let probe = build(0);
    let leaders = block_leaders(probe.bundles());
    let target = (0..leaders.len())
        .rev()
        .find(|&i| !leaders[i])
        .expect("program has a non-leader bundle");
    let code = build(target as i32);

    let mut block = Machine::st200();
    block.backend = ExecBackend::Auto;
    let rb = block.run(&code).expect("block run succeeds");
    assert_eq!(
        block.backend_stats().fallbacks,
        1,
        "the computed jump must fall back to the interpreter"
    );

    let mut interp = Machine::st200();
    interp.backend = ExecBackend::Interpreter;
    let ri = interp.run(&code).expect("interpreter run succeeds");
    assert_eq!(rb, ri, "fallback run diverges from the interpreter");
    for i in 0..rvliw_isa::NUM_GPRS as u8 {
        assert_eq!(block.gpr(Gpr::new(i)), interp.gpr(Gpr::new(i)), "gpr {i}");
    }
}

#[test]
fn armed_fault_plan_forces_the_interpreter() {
    // Fault injection observes individual accesses, which compiled blocks
    // do not replay — a non-inert plan must route the whole run to the
    // interpreter, and produce exactly what a pinned-interpreter machine
    // produces under the same plan.
    let body = vec![(0u8, 1, 2, 3, 64), (13, 2, 3, 4, 128), (6, 3, 4, 5, 0)];
    let code = build_program(&body, 3, None);
    let plan = FaultPlan::from_profile(FaultProfile::Chaos, 7);

    let mut auto = Machine::st200();
    auto.backend = ExecBackend::Auto;
    auto.set_fault_plan(&plan, "parity");
    let ra = auto.run(&code).expect("faulted run completes");
    assert_eq!(
        auto.backend_stats().block_runs,
        0,
        "block backend engaged under faults"
    );
    assert!(auto.backend_stats().interp_runs > 0, "interpreter not used");

    let mut pinned = Machine::st200();
    pinned.backend = ExecBackend::Interpreter;
    pinned.set_fault_plan(&plan, "parity");
    let rp = pinned.run(&code).expect("pinned run completes");
    assert_eq!(ra, rp, "auto-under-faults diverges from pinned interpreter");
}

#[test]
fn attached_tracer_forces_the_interpreter_and_matches() {
    let body = vec![(0u8, 1, 2, 3, 64), (11, 2, 3, 4, 0), (12, 3, 4, 5, 8)];
    let code = build_program(&body, 2, Some(1));

    let mut traced = Machine::st200();
    traced.backend = ExecBackend::Auto;
    let mut t = CountingTracer::new();
    let rt = traced
        .run_with_tracer(&code, &mut t)
        .expect("traced run completes");
    assert_eq!(
        traced.backend_stats().block_runs,
        0,
        "block backend engaged under tracing"
    );

    let mut plain = Machine::st200();
    plain.backend = ExecBackend::Auto;
    let rp = plain.run(&code).expect("plain run completes");
    assert_eq!(rt, rp, "tracing perturbed the simulation");
    assert_eq!(t.bundles, rt.stats.bundles, "tracer bundle count");
}

#[test]
fn cycle_limit_exit_matches_interpreter() {
    // A runaway loop whose body spans several bundles: each budget stops
    // the run at a different bundle inside the block, and both engines
    // must report the same error with the same partial statistics.
    let mut b = Builder::new("runaway");
    let top = b.label();
    b.bind(top);
    for i in 1..6 {
        b.addi(Gpr::new(i), Gpr::new(i + 1), 1);
        b.sad4(Gpr::new(i + 1), Gpr::new(i), Gpr::new(i));
    }
    b.goto(top);
    b.halt();
    let code = schedule_st200(&b.build()).expect("schedules");
    for limit in 20..40 {
        let run = |backend| {
            let mut m = Machine::st200();
            m.backend = backend;
            m.cycle_limit = limit;
            let r = m.run(&code);
            (r, m.gpr(Gpr::new(3)), m.snapshot())
        };
        let interp = run(ExecBackend::Interpreter);
        assert!(
            matches!(interp.0, Err(SimError::CycleLimit { .. })),
            "{interp:?}"
        );
        assert_eq!(interp, run(ExecBackend::Auto), "cycle limit {limit}");
    }
}
