//! Pre-decoded programs: the one lowering both engines execute.
//!
//! [`Machine::run`](crate::Machine::run) executes a program tens of
//! thousands of times per case study (once per motion-estimation
//! candidate). [`DecodedCode`] lowers a scheduled [`Code`] **once**, for
//! one [`MachineConfig`], into dense per-bundle arrays:
//!
//! * one `MicroOp` per operation with every per-opcode decision taken:
//!   a typed variant per opcode and operand shape for the operations the
//!   paper kernels issue most, one long-tail variant for every other pure
//!   operation, and one variant each for sub-word loads, stores,
//!   prefetches, branches, calls, returns and the RFU protocol, with the
//!   destination, the compiler-visible latency, the load width, the branch
//!   sense and target and the RFU configuration id baked in;
//! * a flattened scoreboard read list per bundle (immediates and `$r0`,
//!   which can never raise the ready time, are dropped at decode time);
//! * a per-bundle `has_rfu` flag and per-class issue counts.
//!
//! The lowering is total. An operation no engine could run (a pure opcode
//! with the wrong number of sources, a `hadd2` byte offset outside the
//! `0..=5` window, a load, store or branch missing an operand, an RFU
//! opcode without its configuration id) lowers to
//! `MicroOp::Undecodable`, which fails with
//! [`SimError::Undecodable`](crate::SimError::Undecodable) naming the
//! opcode and the operand when it issues, on every engine alike.
//!
//! Both engines run these micro-ops through the one executor,
//! `exec::exec`: the interpreter driver of [`crate::substrate`]
//! bundle by bundle, the block engine of [`crate::block`] over the same
//! arrays.

use rvliw_asm::Code;
use rvliw_isa::{Br, Dest, Gpr, MachineConfig, Op, Opcode, Src, MAX_SRCS};

use crate::exec::arity;
use crate::machine::MAX_ISSUE;
use crate::stats::class_index;

/// A source operand lowered for the simulator: register indices are bare
/// `u8`s (`$r0` is index 0, which no write ever touches) and immediates
/// are pre-cast to `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DSrc {
    /// General-purpose register read.
    Gpr(u8),
    /// Branch register read (`0` or `1`).
    Br(u8),
    /// Immediate, already cast to the datapath width.
    Imm(u32),
}

/// A register read that participates in the scoreboard interlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScoreRead {
    /// Wait on a general-purpose register.
    Gpr(u8),
    /// Wait on a branch register.
    Br(u8),
}

/// One lowered operation, executed through exactly one `match` arm of
/// [`crate::exec::exec`].
///
/// The typed variants are named after their opcode and operand shape
/// (`GG` two registers, `GI` a register and an immediate, `G` one
/// register), carry register sources as indices and a destination
/// resolved to a non-zero [`Gpr`] (a [`Br`] for `cmpne`), and call the
/// opcode's one definition in [`crate::exec`] or [`rvliw_isa::simd`]. A
/// write to `$r0` or any other shape takes the generic variant of its
/// kind.
#[derive(Debug, Clone)]
pub(crate) enum MicroOp {
    AddGG {
        a: u8,
        b: u8,
        d: Gpr,
        lat: u32,
    },
    AddGI {
        a: u8,
        imm: u32,
        d: Gpr,
        lat: u32,
    },
    SubGI {
        a: u8,
        imm: u32,
        d: Gpr,
        lat: u32,
    },
    OrGG {
        a: u8,
        b: u8,
        d: Gpr,
        lat: u32,
    },
    SllGG {
        a: u8,
        b: u8,
        d: Gpr,
        lat: u32,
    },
    SllGI {
        a: u8,
        imm: u32,
        d: Gpr,
        lat: u32,
    },
    SrlGG {
        a: u8,
        b: u8,
        d: Gpr,
        lat: u32,
    },
    SrlGI {
        a: u8,
        imm: u32,
        d: Gpr,
        lat: u32,
    },
    ExtbuGI {
        a: u8,
        imm: u32,
        d: Gpr,
        lat: u32,
    },
    MovG {
        a: u8,
        d: Gpr,
        lat: u32,
    },
    Sad4GG {
        a: u8,
        b: u8,
        d: Gpr,
        lat: u32,
    },
    Avg4rGG {
        a: u8,
        b: u8,
        d: Gpr,
        lat: u32,
    },
    /// `hadd2` with its byte offset `k` already checked to be in `0..=5`.
    Hadd2GGI {
        a: u8,
        b: u8,
        k: u32,
        d: Gpr,
        lat: u32,
    },
    Rnd2G {
        a: u8,
        d: Gpr,
        lat: u32,
    },
    Pack4GG {
        a: u8,
        b: u8,
        d: Gpr,
        lat: u32,
    },
    CmpNeGI {
        a: u8,
        imm: u32,
        d: Br,
        lat: u32,
    },
    /// `ldw` from `gpr[base] + off`.
    LoadW {
        base: u8,
        off: u32,
        d: Gpr,
        lat: u32,
    },
    /// Any other pure operation over its sources (unused ones are
    /// `Imm(0)`), evaluated by [`crate::exec::eval`].
    Pure {
        opcode: Opcode,
        srcs: [DSrc; 3],
        dest: Dest,
        lat: u32,
    },
    /// Load of `size` bytes from `addr[0] + addr[1]`, sign-extended from
    /// `sext_from` bits (`0` keeps the raw value).
    Load {
        addr: [DSrc; 2],
        size: u8,
        sext_from: u8,
        dest: Dest,
        lat: u32,
    },
    /// Store of the low `size` bytes of `val` to `addr[0] + addr[1]`.
    Store {
        val: DSrc,
        addr: [DSrc; 2],
        size: u8,
    },
    /// Software prefetch of the line holding `addr[0] + addr[1]`.
    Pft {
        addr: [DSrc; 2],
    },
    /// Branch when `cond` is non-zero (`on_true`) or zero; a taken branch
    /// without a resolved target fails.
    BrCond {
        cond: DSrc,
        on_true: bool,
        target: Option<u32>,
    },
    Goto {
        target: u32,
    },
    /// Writes the return bundle index to the link register and jumps.
    Call {
        target: u32,
    },
    /// Jumps to the bundle index in `target` (the link register unless
    /// the op names a source).
    Ret {
        target: DSrc,
    },
    Halt,
    Nop,
    RfuInit {
        cfg: u16,
    },
    RfuSend {
        cfg: u16,
        srcs: Box<[DSrc]>,
    },
    /// `rfuexec` and `rfuloop`.
    RfuExec {
        cfg: u16,
        srcs: Box<[DSrc]>,
        dest: Dest,
        lat: u32,
    },
    RfuPref {
        cfg: u16,
        addr: DSrc,
    },
    /// A `goto` or `call` without a resolved target (hand-built,
    /// unscheduled code): fails with
    /// [`SimError::UnresolvedTarget`](crate::SimError::UnresolvedTarget).
    Unresolved,
    /// An operation no engine can run; fails with
    /// [`SimError::Undecodable`](crate::SimError::Undecodable).
    Undecodable {
        what: String,
    },
}

// The engines walk `DecodedCode::ops` at this stride.
const _: () = assert!(std::mem::size_of::<MicroOp>() <= 32);

impl MicroOp {
    /// The register this operation writes and, when the block compiler
    /// can see it, the latency after issue at which the value is ready:
    /// pure results and loads complete `lat` after the cycle that issued
    /// them (a load's miss stall pushes the ready time and every later
    /// bundle equally). RFU results and the call's link register are
    /// ready on a schedule only the run knows.
    pub(crate) fn write(&self) -> Option<(Dest, Option<u64>)> {
        use MicroOp::*;
        match *self {
            AddGG { d, lat, .. }
            | AddGI { d, lat, .. }
            | SubGI { d, lat, .. }
            | OrGG { d, lat, .. }
            | SllGG { d, lat, .. }
            | SllGI { d, lat, .. }
            | SrlGG { d, lat, .. }
            | SrlGI { d, lat, .. }
            | ExtbuGI { d, lat, .. }
            | MovG { d, lat, .. }
            | Sad4GG { d, lat, .. }
            | Avg4rGG { d, lat, .. }
            | Hadd2GGI { d, lat, .. }
            | Rnd2G { d, lat, .. }
            | Pack4GG { d, lat, .. }
            | LoadW { d, lat, .. } => Some((Dest::Gpr(d), Some(u64::from(lat)))),
            CmpNeGI { d, lat, .. } => Some((Dest::Br(d), Some(u64::from(lat)))),
            Pure { dest, lat, .. } | Load { dest, lat, .. } => Some((dest, Some(u64::from(lat)))),
            RfuExec { dest, .. } => Some((dest, None)),
            Call { .. } => Some((Dest::Gpr(Gpr::LINK), None)),
            Store { .. }
            | Pft { .. }
            | BrCond { .. }
            | Goto { .. }
            | Ret { .. }
            | Halt
            | Nop
            | RfuInit { .. }
            | RfuSend { .. }
            | RfuPref { .. }
            | Unresolved
            | Undecodable { .. } => None,
        }
    }
}

/// Number of functional-unit classes tracked by
/// [`SimStats::ops_by_class`](crate::SimStats).
pub const NUM_OP_CLASSES: usize = 5;

/// Per-bundle slices into the flat operation and read arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BundleMeta {
    pub(crate) ops_start: u32,
    pub(crate) ops_len: u8,
    pub(crate) reads_start: u32,
    pub(crate) reads_len: u16,
    pub(crate) has_rfu: bool,
    /// Issued operations per functional-unit class, pre-counted so the
    /// issue loop bumps five fixed counters instead of one indexed
    /// counter per op.
    class_counts: [u8; NUM_OP_CLASSES],
}

/// A program lowered for a specific [`MachineConfig`] (latencies are baked
/// in, so a decoded program must only run on machines with the same
/// configuration — [`Machine`](crate::Machine) guarantees this by caching
/// per instance).
#[derive(Debug)]
pub struct DecodedCode {
    code_id: u64,
    meta: Vec<BundleMeta>,
    pub(crate) ops: Vec<MicroOp>,
    pub(crate) reads: Vec<ScoreRead>,
}

impl DecodedCode {
    /// Lowers `code` for machines configured as `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if a bundle is wider than [`MAX_ISSUE`] — such a program
    /// could never issue on any supported machine.
    #[must_use]
    pub fn new(code: &Code, cfg: &MachineConfig) -> Self {
        let mut meta = Vec::with_capacity(code.bundles().len());
        let mut ops = Vec::with_capacity(code.num_ops());
        let mut reads = Vec::new();
        for bundle in code.bundles() {
            let nops = bundle.ops().len();
            assert!(
                nops <= MAX_ISSUE,
                "bundle of {nops} ops exceeds the simulator's issue scratch"
            );
            let ops_start = ops.len() as u32;
            let reads_start = reads.len() as u32;
            let mut has_rfu = false;
            let mut class_counts = [0u8; NUM_OP_CLASSES];
            for op in bundle.ops() {
                has_rfu |= op.opcode.is_rfu();
                class_counts[class_index(op.opcode.class())] += 1;
                for &s in op.srcs() {
                    match s {
                        Src::Gpr(r) if !r.is_zero() => reads.push(ScoreRead::Gpr(r.index())),
                        Src::Gpr(_) | Src::Imm(_) => {}
                        Src::Br(b) => reads.push(ScoreRead::Br(b.index())),
                    }
                }
                ops.push(
                    lower(op, cfg.latency(op)).unwrap_or_else(|what| MicroOp::Undecodable { what }),
                );
            }
            meta.push(BundleMeta {
                ops_start,
                ops_len: nops as u8,
                reads_start,
                reads_len: (reads.len() as u32 - reads_start) as u16,
                has_rfu,
                class_counts,
            });
        }
        DecodedCode {
            code_id: code.id(),
            meta,
            ops,
            reads,
        }
    }

    /// The identity of the [`Code`] this was lowered from.
    #[must_use]
    pub fn code_id(&self) -> u64 {
        self.code_id
    }

    /// Number of bundles (the program counter domain).
    #[must_use]
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the program has no bundles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// The slices of bundle `pc` into the flat arrays.
    #[inline]
    pub(crate) fn meta(&self, pc: usize) -> &BundleMeta {
        &self.meta[pc]
    }

    /// The lowered operations of bundle `pc`.
    #[inline]
    pub(crate) fn ops_of(&self, pc: usize) -> &[MicroOp] {
        let m = &self.meta[pc];
        &self.ops[m.ops_start as usize..][..m.ops_len as usize]
    }

    /// The scoreboard reads of bundle `pc`.
    #[inline]
    pub(crate) fn reads_of(&self, pc: usize) -> &[ScoreRead] {
        let m = &self.meta[pc];
        &self.reads[m.reads_start as usize..][..m.reads_len as usize]
    }

    /// Issued operations of bundle `pc` per functional-unit class.
    #[inline]
    pub(crate) fn class_counts_of(&self, pc: usize) -> &[u8; NUM_OP_CLASSES] {
        &self.meta[pc].class_counts
    }
}

/// Checks that `op` has between `min` and `max` sources, naming the first
/// missing or unexpected one.
fn check_count(op: &Op, min: usize, max: usize) -> Result<(), String> {
    let srcs = op.srcs();
    if srcs.len() < min {
        return Err(format!(
            "{}: source operand {} is missing",
            op.opcode,
            srcs.len() + 1
        ));
    }
    if srcs.len() > max {
        return Err(format!(
            "{}: unexpected source operand {} `{}`",
            op.opcode,
            max + 1,
            srcs[max]
        ));
    }
    Ok(())
}

fn dsrc(s: Src) -> DSrc {
    match s {
        Src::Gpr(r) => DSrc::Gpr(r.index()),
        Src::Br(b) => DSrc::Br(b.index()),
        Src::Imm(v) => DSrc::Imm(v as u32),
    }
}

/// Lowers one scheduled operation, or says why no engine can run it.
fn lower(op: &Op, lat: u64) -> Result<MicroOp, String> {
    use MicroOp as M;
    use Opcode::*;
    let lat = u32::try_from(lat)
        .map_err(|_| format!("{}: latency {lat} does not fit in 32 bits", op.opcode))?;
    // Every source, then `Imm(0)` for the absent ones: an absent address
    // offset adds nothing.
    let mut s = [DSrc::Imm(0); MAX_SRCS];
    for (d, &src) in s.iter_mut().zip(op.srcs()) {
        *d = dsrc(src);
    }
    let dest = op.dest;
    let gd = match dest {
        Dest::Gpr(d) if !d.is_zero() => Some(d),
        _ => None,
    };
    let target = op.target;
    let cfg = || {
        op.cfg
            .ok_or_else(|| format!("{} without a configuration id", op.opcode))
    };
    let srcs = || op.srcs().iter().map(|&x| dsrc(x)).collect::<Box<[DSrc]>>();
    Ok(match op.opcode {
        Ldw | Ldh | Ldhu | Ldb | Ldbu => {
            check_count(op, 1, 2)?;
            let (size, sext_from) = match op.opcode {
                Ldw => (4, 0),
                Ldh => (2, 16),
                Ldhu => (2, 0),
                Ldb => (1, 8),
                _ => (1, 0),
            };
            match (op.opcode, gd, s[0], s[1]) {
                (Ldw, Some(d), DSrc::Gpr(base), DSrc::Imm(off)) => M::LoadW { base, off, d, lat },
                (Ldw, Some(d), DSrc::Imm(off), DSrc::Imm(0)) => M::LoadW {
                    base: 0,
                    off,
                    d,
                    lat,
                },
                _ => M::Load {
                    addr: [s[0], s[1]],
                    size,
                    sext_from,
                    dest,
                    lat,
                },
            }
        }
        Stw | Sth | Stb => {
            check_count(op, 2, 3)?;
            let size = match op.opcode {
                Stw => 4,
                Sth => 2,
                _ => 1,
            };
            M::Store {
                val: s[0],
                addr: [s[1], s[2]],
                size,
            }
        }
        Pft => {
            check_count(op, 1, 2)?;
            M::Pft { addr: [s[0], s[1]] }
        }
        BrT | BrF => {
            check_count(op, 1, 1)?;
            M::BrCond {
                cond: s[0],
                on_true: op.opcode == BrT,
                target,
            }
        }
        Goto | Call => {
            check_count(op, 0, 0)?;
            match (op.opcode, target) {
                (_, None) => M::Unresolved,
                (Goto, Some(target)) => M::Goto { target },
                (_, Some(target)) => M::Call { target },
            }
        }
        Ret => {
            check_count(op, 0, 1)?;
            M::Ret {
                target: if op.srcs().is_empty() {
                    DSrc::Gpr(Gpr::LINK.index())
                } else {
                    s[0]
                },
            }
        }
        Halt => {
            check_count(op, 0, 0)?;
            M::Halt
        }
        RfuInit => M::RfuInit { cfg: cfg()? },
        RfuSend => M::RfuSend {
            cfg: cfg()?,
            srcs: srcs(),
        },
        RfuExec | RfuLoop => M::RfuExec {
            cfg: cfg()?,
            srcs: srcs(),
            dest,
            lat,
        },
        RfuPref => {
            let cfg = cfg()?;
            check_count(op, 1, 1)?;
            M::RfuPref { cfg, addr: s[0] }
        }
        opcode => {
            let n = arity(opcode).ok_or_else(|| format!("{opcode} has no evaluator"))?;
            check_count(op, n, n)?;
            if opcode == Nop {
                return Ok(M::Nop);
            }
            if opcode == Hadd2 && !matches!(s[2], DSrc::Imm(0..=5)) {
                return Err(format!(
                    "hadd2: byte offset operand 3 must be an immediate in 0..=5, got `{}`",
                    op.srcs()[2]
                ));
            }
            lower_pure(opcode, [s[0], s[1], s[2]], dest, lat)
        }
    })
}

/// Lowers a checked pure operation to its typed variant when its opcode,
/// operand shape and destination have one, else to [`MicroOp::Pure`].
fn lower_pure(opcode: Opcode, srcs: [DSrc; 3], dest: Dest, lat: u32) -> MicroOp {
    use DSrc::{Gpr as G, Imm as I};
    use MicroOp::*;
    use Opcode as O;
    match (opcode, srcs, dest) {
        (O::CmpNe, [G(a), I(imm), _], Dest::Br(d)) => CmpNeGI { a, imm, d, lat },
        (_, _, Dest::Gpr(d)) if !d.is_zero() => match (opcode, srcs) {
            (O::Add, [G(a), G(b), _]) => AddGG { a, b, d, lat },
            (O::Add, [G(a), I(imm), _]) => AddGI { a, imm, d, lat },
            (O::Sub, [G(a), I(imm), _]) => SubGI { a, imm, d, lat },
            (O::Or, [G(a), G(b), _]) => OrGG { a, b, d, lat },
            (O::Sll, [G(a), G(b), _]) => SllGG { a, b, d, lat },
            (O::Sll, [G(a), I(imm), _]) => SllGI { a, imm, d, lat },
            (O::Srl, [G(a), G(b), _]) => SrlGG { a, b, d, lat },
            (O::Srl, [G(a), I(imm), _]) => SrlGI { a, imm, d, lat },
            (O::Extbu, [G(a), I(imm), _]) => ExtbuGI { a, imm, d, lat },
            (O::Mov, [G(a), ..]) => MovG { a, d, lat },
            (O::Sad4, [G(a), G(b), _]) => Sad4GG { a, b, d, lat },
            (O::Avg4r, [G(a), G(b), _]) => Avg4rGG { a, b, d, lat },
            (O::Hadd2, [G(a), G(b), I(k)]) => Hadd2GGI { a, b, k, d, lat },
            (O::Rnd2, [G(a), ..]) => Rnd2G { a, d, lat },
            (O::Pack4, [G(a), G(b), _]) => Pack4GG { a, b, d, lat },
            _ => Pure {
                opcode,
                srcs,
                dest,
                lat,
            },
        },
        _ => Pure {
            opcode,
            srcs,
            dest,
            lat,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvliw_asm::Builder;

    #[test]
    fn decode_flattens_bundles_and_drops_non_register_reads() {
        let mut b = Builder::new("d");
        b.movi(Gpr::new(1), 7); // imm source only: no scoreboard read
        b.add(Gpr::new(2), Gpr::new(1), 5); // one gpr read + imm
        b.halt();
        let code = rvliw_asm::schedule_st200(&b.build()).unwrap();
        let cfg = MachineConfig::st200();
        let d = DecodedCode::new(&code, &cfg);
        assert_eq!(d.len(), code.bundles().len());
        let total_ops: usize = (0..d.len()).map(|pc| d.ops_of(pc).len()).sum();
        assert_eq!(total_ops, code.num_ops());
        let total_reads: usize = (0..d.len()).map(|pc| d.reads_of(pc).len()).sum();
        assert_eq!(total_reads, 1, "only the add's register source interlocks");
        assert!((0..d.len()).all(|pc| !d.meta(pc).has_rfu));
    }

    #[test]
    fn latencies_match_the_configuration() {
        let mut b = Builder::new("lat");
        b.movi(Gpr::new(1), 3);
        b.mul(Gpr::new(2), Gpr::new(1), Gpr::new(1));
        b.halt();
        let code = rvliw_asm::schedule_st200(&b.build()).unwrap();
        let cfg = MachineConfig::st200();
        let d = DecodedCode::new(&code, &cfg);
        let lats: Vec<u64> = d.ops.iter().filter_map(|op| op.write()?.1).collect();
        assert!(lats.contains(&cfg.lat_mul), "mul latency baked in");
        assert!(lats.contains(&cfg.lat_alu), "alu latency baked in");
    }

    fn lowered(op: Op) -> Result<MicroOp, String> {
        lower(&op, 1)
    }

    #[test]
    fn malformed_operations_name_the_opcode_and_the_operand() {
        let (r1, r2, r4) = (Gpr::new(1), Gpr::new(2), Gpr::new(4));
        let hadd2 = |k: Src| Op::new(Opcode::Hadd2, r1.into(), &[r1.into(), r2.into(), k]);
        for (op, want) in [
            (hadd2(Src::Imm(6)), "hadd2: byte offset operand 3"),
            (hadd2(Src::Imm(-1)), "hadd2: byte offset operand 3"),
            (hadd2(r4.into()), "got `$r4`"),
            (
                Op::new(Opcode::Add, r1.into(), &[r2.into()]),
                "add: source operand 2 is missing",
            ),
            (
                Op::new(Opcode::Ldw, r1.into(), &[]),
                "ldw: source operand 1 is missing",
            ),
            (
                Op::new(Opcode::Mov, r1.into(), &[r2.into(), r4.into()]),
                "mov: unexpected source operand 2 `$r4`",
            ),
            (
                Op::new(Opcode::BrT, Dest::None, &[]),
                "br: source operand 1 is missing",
            ),
            (
                Op::new(Opcode::RfuPref, Dest::None, &[]).with_cfg(3),
                "rfupref: source operand 1",
            ),
            (
                Op::new(Opcode::RfuInit, Dest::None, &[]),
                "rfuinit without a configuration id",
            ),
        ] {
            let err = lowered(op).expect_err(want);
            assert!(err.contains(want), "{err:?} should contain {want:?}");
        }
        for k in 0..=5 {
            assert!(matches!(
                lowered(hadd2(Src::Imm(k))),
                Ok(MicroOp::Hadd2GGI { .. })
            ));
        }
    }
}
