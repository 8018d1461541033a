//! RFU operations never crash the simulator.
//!
//! Random programs of `rfuinit`, `rfusend`, `rfupref`, `rfuexec` and
//! `rfuloop` with random configuration ids (known and unknown), random
//! addresses (the end of simulated RAM and `u32::MAX` among them) and
//! random interpolation bits, run on an RFU with the case study's
//! configurations (one and two line buffers) and on one with none, under
//! a small cycle limit. Each program runs on the pinned interpreter, on
//! `ExecBackend::Auto` (the block engine) and on the scalar substrate,
//! under `catch_unwind`: none may panic, and the two VLIW engines must
//! agree on the outcome — an equal `Snapshot` of every counter and equal
//! registers, or an equal error.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use rvliw_asm::{schedule_st200, Builder, Code};
use rvliw_isa::{Br, Gpr, MachineConfig, Src, Substrate};
use rvliw_mem::MemConfig;
use rvliw_rfu::{cfgs, MeLoopCfg, Rfu, RfuBandwidth};
use rvliw_sim::{ExecBackend, Machine, RunSummary, SimError, Snapshot};

/// Simulated RAM of the loop-level machine (4 MiB).
const RAM: u32 = 4 << 20;

/// One RFU operation; operands are loaded into `$r1..$r3` first.
#[derive(Debug, Clone)]
enum RfuOp {
    Init(u16),
    Send(u16, u32, u32),
    Pref(u16, u32),
    Exec(u16, [u32; 3], usize),
    Loop(u16, [u32; 3]),
}

/// The RFU the machine gets.
#[derive(Debug, Clone, Copy)]
enum Unit {
    /// The case study's configurations, one line buffer.
    OneLineBuffer,
    /// The case study's configurations, Line Buffer B on.
    TwoLineBuffers,
    /// No configuration at all.
    Unconfigured,
}

/// The case study's prefetch configurations.
const PREFETCH: [u16; 3] = [cfgs::PREF_REF, cfgs::PREF_CAND, cfgs::PREF_CAND_LBB];

/// The case study's compute configurations.
const COMPUTE: [u16; 6] = [
    cfgs::DIAG4,
    cfgs::DIAG16,
    cfgs::DIAG16_R1,
    cfgs::DIAG16_R3,
    cfgs::ME_LOOP,
    cfgs::DCT_LOOP,
];

/// Mostly one of `ids` (so that programs get past their first operation),
/// sometimes any id, known or not.
fn cfg_id(ids: &'static [u16]) -> impl Strategy<Value = u16> {
    prop_oneof![
        (0..ids.len()).prop_map(move |i| ids[i]),
        (0..ids.len()).prop_map(move |i| ids[i]),
        (0..ids.len()).prop_map(move |i| ids[i]),
        any::<u16>(),
    ]
}

/// Addresses in and around the frames, at the end of RAM, past it, and
/// at the top of the address space.
fn address() -> impl Strategy<Value = u32> {
    prop_oneof![
        0x100u32..0x2_0000,
        0x100u32..0x2_0000,
        (0u32..4096).prop_map(|k| RAM - k),
        (0u32..4096).prop_map(|k| RAM - k),
        (0u32..4096).prop_map(|k| RAM + k),
        (0u32..4096).prop_map(|k| u32::MAX - k),
        any::<u32>(),
    ]
}

fn rfu_op() -> impl Strategy<Value = RfuOp> {
    let srcs = || (address(), 0u32..8, address()).prop_map(|(c, i, r)| [c, i, r]);
    prop_oneof![
        cfg_id(&COMPUTE).prop_map(RfuOp::Init),
        (cfg_id(&COMPUTE), any::<u32>(), any::<u32>()).prop_map(|(c, a, b)| RfuOp::Send(c, a, b)),
        (cfg_id(&PREFETCH), address()).prop_map(|(c, a)| RfuOp::Pref(c, a)),
        (cfg_id(&PREFETCH), address()).prop_map(|(c, a)| RfuOp::Pref(c, a)),
        (cfg_id(&COMPUTE), srcs(), 0usize..=3).prop_map(|(c, s, n)| RfuOp::Exec(c, s, n)),
        (cfg_id(&COMPUTE), srcs()).prop_map(|(c, s)| RfuOp::Loop(c, s)),
    ]
}

fn program(ops: &[RfuOp]) -> Code {
    let (a, b, c, d) = (Gpr::new(1), Gpr::new(2), Gpr::new(3), Gpr::new(4));
    let regs = |bld: &mut Builder, s: [u32; 3]| {
        bld.movi(a, s[0] as i32);
        bld.movi(b, s[1] as i32);
        bld.movi(c, s[2] as i32);
    };
    let mut bld = Builder::new("rfu-fuzz");
    for op in ops {
        match *op {
            RfuOp::Init(cfg) => bld.rfu_init(cfg),
            RfuOp::Send(cfg, x, y) => {
                regs(&mut bld, [x, y, 0]);
                bld.rfu_send(cfg, &[a, b]);
            }
            RfuOp::Pref(cfg, addr) => {
                regs(&mut bld, [addr, 0, 0]);
                bld.rfu_pref(cfg, a);
            }
            RfuOp::Exec(cfg, s, n) => {
                regs(&mut bld, s);
                let srcs: Vec<Src> = [a, b, c][..n].iter().map(|&r| r.into()).collect();
                bld.rfu_exec(cfg, d, &srcs);
            }
            RfuOp::Loop(cfg, s) => {
                regs(&mut bld, s);
                bld.rfu_loop(cfg, d, &[a.into(), b.into(), c.into()]);
            }
        }
    }
    bld.halt();
    schedule_st200(&bld.build()).expect("straight-line RFU program schedules")
}

type Outcome = (Result<RunSummary, SimError>, Snapshot, Vec<u32>, Vec<bool>);

/// Runs `code` on a fresh loop-level machine; `Err` carries a panic.
fn run(
    code: &Code,
    unit: Unit,
    substrate: Substrate,
    backend: ExecBackend,
    limit: u64,
) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mem = MemConfig::st200_loop_level();
        assert_eq!(mem.ram_size, RAM);
        let mut m = Machine::new(MachineConfig::st200().with_substrate(substrate), mem);
        let me = MeLoopCfg::new(RfuBandwidth::B1x32, 1, 176);
        m.rfu = match unit {
            Unit::OneLineBuffer => Rfu::with_case_study_configs(me),
            Unit::TwoLineBuffers => Rfu::with_case_study_configs(me.with_line_buffer_b()),
            Unit::Unconfigured => Rfu::new(),
        };
        m.backend = backend;
        m.cycle_limit = limit;
        // Frames for the loop to read, as a replay allocates them.
        let frame = m.mem.ram.alloc(176 * 144 * 2, 32);
        m.mem.ram.store32(frame, 0x0102_0304);
        let r = m.run(code);
        let gprs = (0..rvliw_isa::NUM_GPRS as u8)
            .map(|i| m.gpr(Gpr::new(i)))
            .collect();
        let brs = (0..rvliw_isa::NUM_BRS as u8)
            .map(|i| m.br(Br::new(i)))
            .collect();
        (r, m.snapshot(), gprs, brs)
    }))
    .map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    })
}

fn unit() -> impl Strategy<Value = Unit> {
    prop_oneof![
        Just(Unit::OneLineBuffer),
        Just(Unit::TwoLineBuffers),
        Just(Unit::Unconfigured),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rfu_programs_never_panic_and_the_engines_agree(
        ops in proptest::collection::vec(rfu_op(), 1..8),
        unit in unit(),
        limit in prop_oneof![1u64..200, Just(100_000)],
    ) {
        let code = program(&ops);
        let interp = run(&code, unit, Substrate::Vliw4, ExecBackend::Interpreter, limit);
        let block = run(&code, unit, Substrate::Vliw4, ExecBackend::Auto, limit);
        let scalar = run(&code, unit, Substrate::ScalarInOrder, ExecBackend::Auto, limit);
        for (engine, r) in [("interpreter", &interp), ("block", &block), ("scalar", &scalar)] {
            prop_assert!(r.is_ok(), "{} panicked on {:?}: {:?}", engine, ops, r.as_ref().err());
        }
        prop_assert_eq!(interp.unwrap(), block.unwrap(), "engines diverge on {:?}", ops);
    }
}
