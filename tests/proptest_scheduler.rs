//! Property test: the list scheduler preserves program semantics.
//!
//! For random straight-line programs over the pure ALU/SIMD/multiplier
//! subset, executing the *scheduled* VLIW code on the machine must produce
//! exactly the architectural state of a plain sequential interpretation —
//! whatever reordering and bundling the scheduler chose.

mod reference_ops;

use proptest::prelude::*;

use reference_ops::eval_pure;
use rvliw::asm::{schedule_st200, Builder};
use rvliw::isa::{Br, Dest, Gpr, Op, Opcode, Src};
use rvliw::sim::Machine;

/// Opcodes safe for random generation (pure, any operand values legal).
const PURE_OPS: &[Opcode] = &[
    Opcode::Add,
    Opcode::Sub,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Nor,
    Opcode::Min,
    Opcode::Max,
    Opcode::Minu,
    Opcode::Maxu,
    Opcode::Sll,
    Opcode::Srl,
    Opcode::Sra,
    Opcode::Mul,
    Opcode::Mulh,
    Opcode::Sxtb,
    Opcode::Zxth,
    Opcode::Add4,
    Opcode::Sub4,
    Opcode::Avg4,
    Opcode::Avg4r,
    Opcode::Sad4,
    Opcode::Absd4,
    Opcode::Max4u,
    Opcode::Min4u,
    Opcode::Avgh4,
    Opcode::Lsbh4,
    Opcode::Pack4,
    Opcode::Rnd2,
];

#[derive(Debug, Clone)]
enum GenOp {
    /// `opcode rd = rs1, rs2`
    Rrr(Opcode, u8, u8, u8),
    /// `opcode rd = rs1, imm`
    Rri(Opcode, u8, u8, i32),
    /// compare into a branch register
    CmpBr(u8, u8, u8),
    /// select on a branch register
    Slct(u8, u8, u8, u8),
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    let pure = (0..PURE_OPS.len(), 1u8..32, 0u8..32, 0u8..32)
        .prop_map(|(i, d, a, b)| GenOp::Rrr(PURE_OPS[i], d, a, b));
    let imm = (0..PURE_OPS.len(), 1u8..32, 0u8..32, any::<i32>())
        .prop_map(|(i, d, a, v)| GenOp::Rri(PURE_OPS[i], d, a, v));
    let cmp = (0u8..8, 0u8..32, 0u8..32).prop_map(|(b, x, y)| GenOp::CmpBr(b, x, y));
    let slct = (0u8..8, 1u8..32, 0u8..32, 0u8..32).prop_map(|(b, d, x, y)| GenOp::Slct(b, d, x, y));
    prop_oneof![4 => pure, 2 => imm, 1 => cmp, 1 => slct]
}

/// The members of `PURE_OPS` that take one source: their register form
/// reads only `rs1` and their immediate form only the immediate (the
/// simulator refuses an operation with a source its opcode does not
/// take).
const ONE_SOURCE: &[Opcode] = &[Opcode::Sxtb, Opcode::Zxth, Opcode::Rnd2];

fn to_op(g: &GenOp) -> Op {
    match *g {
        GenOp::Rrr(opc, d, a, _) if ONE_SOURCE.contains(&opc) => {
            Op::new(opc, Gpr::new(d).into(), &[Gpr::new(a).into()])
        }
        GenOp::Rri(opc, d, _, v) if ONE_SOURCE.contains(&opc) => {
            Op::new(opc, Gpr::new(d).into(), &[Src::Imm(v)])
        }
        GenOp::Rrr(opc, d, a, b) => Op::rrr(opc, Gpr::new(d), Gpr::new(a), Gpr::new(b)),
        GenOp::Rri(opc, d, a, v) => Op::rri(opc, Gpr::new(d), Gpr::new(a), v),
        GenOp::CmpBr(b, x, y) => Op::new(
            Opcode::CmpLtu,
            Dest::Br(Br::new(b)),
            &[Gpr::new(x).into(), Gpr::new(y).into()],
        ),
        GenOp::Slct(b, d, x, y) => Op::new(
            Opcode::Slct,
            Dest::Gpr(Gpr::new(d)),
            &[Br::new(b).into(), Gpr::new(x).into(), Gpr::new(y).into()],
        ),
    }
}

/// Plain sequential reference semantics.
fn reference_run(ops: &[Op], init: &[u32; 32]) -> ([u32; 32], [bool; 8]) {
    let mut gpr = [0u32; 64];
    gpr[..32].copy_from_slice(init);
    gpr[0] = 0;
    let mut br = [false; 8];
    for op in ops {
        let srcs: Vec<u32> = op
            .srcs()
            .iter()
            .map(|s| match *s {
                Src::Gpr(r) => gpr[r.index() as usize],
                Src::Br(b) => u32::from(br[b.index() as usize]),
                Src::Imm(v) => v as u32,
            })
            .collect();
        let v = eval_pure(op.opcode, &srcs);
        match op.dest {
            Dest::Gpr(r) if !r.is_zero() => gpr[r.index() as usize] = v,
            Dest::Br(b) => br[b.index() as usize] = v != 0,
            _ => {}
        }
    }
    let mut out = [0u32; 32];
    out.copy_from_slice(&gpr[..32]);
    (out, br)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scheduled_execution_matches_sequential_semantics(
        gens in proptest::collection::vec(gen_op(), 1..60),
        init in proptest::array::uniform32(any::<u32>()),
    ) {
        let ops: Vec<Op> = gens.iter().map(to_op).collect();

        // Reference: sequential interpretation.
        let (ref_gpr, ref_br) = reference_run(&ops, &init);

        // Machine: schedule and execute.
        let mut b = Builder::new("prop");
        for op in &ops {
            b.op(*op);
        }
        b.halt();
        let code = schedule_st200(&b.build()).expect("random pure programs schedule");
        let mut m = Machine::st200();
        for (i, &v) in init.iter().enumerate() {
            m.set_gpr(Gpr::new(i as u8), v);
        }
        m.run(&code).expect("runs to halt");

        for i in 0..32u8 {
            prop_assert_eq!(
                m.gpr(Gpr::new(i)),
                ref_gpr[i as usize],
                "GPR {} after {} ops",
                i,
                ops.len()
            );
        }
        for i in 0..8u8 {
            prop_assert_eq!(m.br(Br::new(i)), ref_br[i as usize], "BR {}", i);
        }
    }

    #[test]
    fn scheduler_never_exceeds_sequential_length(
        gens in proptest::collection::vec(gen_op(), 1..60),
    ) {
        let ops: Vec<Op> = gens.iter().map(to_op).collect();
        let n = ops.len();
        let mut b = Builder::new("prop");
        for op in &ops {
            b.op(*op);
        }
        b.halt();
        let code = schedule_st200(&b.build()).unwrap();
        // A list schedule is at most as long as fully serial issue with
        // worst-case per-op latency (multiplies: 3).
        prop_assert!(code.bundles().len() <= 3 * n + 2, "{} bundles for {} ops", code.bundles().len(), n);
    }
}
