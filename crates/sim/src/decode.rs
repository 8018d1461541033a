//! Pre-decoded programs: the simulator's fast path.
//!
//! [`Machine::run`](crate::Machine::run) executes a program tens of
//! thousands of times per case study (once per motion-estimation
//! candidate). The original issue loop re-matched `Opcode`/`Src` enums and
//! re-derived latencies and functional-unit classes for every operation on
//! every cycle. [`DecodedCode`] lowers a scheduled [`Code`] **once** into
//! dense per-bundle metadata:
//!
//! * an [`ExecKind`] discriminant with the per-opcode decisions already
//!   taken (load width and sign extension, branch sense, RFU configuration
//!   id, and — for pure operations — a direct `fn(&[u32]) -> u32`);
//! * the compiler-visible result latency and statistics class index;
//! * a flattened scoreboard read list per bundle (immediates and `$r0`,
//!   which can never raise the ready time, are dropped at decode time);
//! * a per-bundle `has_rfu` flag replacing the per-cycle `is_rfu` scan.
//!
//! The lowering is purely a change of representation: the machine's
//! decoded issue loop performs the same state transitions in the same
//! order as the original interpretive loop, so cycle counts and all
//! statistics are bit-identical.

use rvliw_asm::Code;
use rvliw_isa::{Dest, MachineConfig, Opcode, Src, MAX_SRCS};

use crate::exec::{pure_fn, PureFn};
use crate::machine::MAX_ISSUE;
use crate::stats::class_index;

/// A source operand lowered for the simulator: register indices are bare
/// `usize`s and immediates are pre-cast to `u32`.
#[derive(Debug, Clone, Copy)]
pub enum DSrc {
    /// General-purpose register read (never `$r0`).
    Gpr(u8),
    /// The always-zero register `$r0`.
    Zero,
    /// Branch register read.
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

/// The pre-matched execution discriminant of one operation.
#[derive(Debug, Clone, Copy)]
pub enum ExecKind {
    /// Memory load: access width in bytes plus the value adjustment.
    Load {
        /// Access size in bytes (1, 2 or 4).
        size: u32,
        /// Sign-extend the loaded value from this many bits (8 or 16);
        /// `0` keeps the raw value (word and unsigned loads).
        sext_from: u8,
    },
    /// Memory store: access width in bytes.
    Store {
        /// Access size in bytes (1, 2 or 4).
        size: u32,
    },
    /// Software prefetch.
    Pft,
    /// Conditional branch.
    BrCond {
        /// Branch when the condition is non-zero (`brt`) or zero (`brf`).
        on_true: bool,
        /// Resolved target bundle index (`None` only for unscheduled
        /// hand-built programs; taking such a branch panics exactly like
        /// the interpretive loop did).
        target: Option<u32>,
    },
    /// Unconditional jump.
    Goto {
        /// Resolved target bundle index.
        target: Option<u32>,
    },
    /// Call: link register write plus jump.
    Call {
        /// Resolved target bundle index.
        target: Option<u32>,
    },
    /// Return through the link register (or an explicit source).
    Ret,
    /// Stop the run.
    Halt,
    /// No operation.
    Nop,
    /// RFU configuration load.
    RfuInit(u16),
    /// RFU operand send.
    RfuSend(u16),
    /// RFU execute (short custom instruction or kernel loop).
    RfuExec(u16),
    /// RFU macroblock prefetch.
    RfuPref(u16),
    /// Side-effect-free operation, lowered to a direct evaluator.
    Pure(PureFn),
    /// An operation the decoder could not lower (an RFU opcode built
    /// without its configuration id, or an opcode with no evaluator).
    /// Executing it fails with
    /// [`SimError::Undecodable`](crate::SimError::Undecodable) instead
    /// of panicking; scheduled programs never contain one.
    Undecodable {
        /// What was missing.
        what: &'static str,
    },
}

/// One lowered operation.
#[derive(Debug, Clone)]
pub struct DecodedOp {
    /// The source opcode, which the block engine lowers to a typed
    /// micro-op.
    pub opcode: Opcode,
    /// Pre-matched execution discriminant.
    pub kind: ExecKind,
    /// Destination (or [`Dest::None`]).
    pub dest: Dest,
    srcs: [DSrc; MAX_SRCS],
    nsrcs: u8,
    /// Compiler-visible result latency on this machine configuration.
    pub lat: u64,
    /// Index into `SimStats::ops_by_class`.
    pub class_idx: u8,
}

impl DecodedOp {
    /// The lowered source operands.
    #[must_use]
    pub fn srcs(&self) -> &[DSrc] {
        &self.srcs[..self.nsrcs as usize]
    }
}

/// Number of functional-unit classes tracked by
/// [`SimStats::ops_by_class`](crate::SimStats).
pub const NUM_OP_CLASSES: usize = 5;

/// Per-bundle slices into the flat operation and read arrays.
#[derive(Debug, Clone, Copy)]
struct BundleMeta {
    ops_start: u32,
    ops_len: u8,
    reads_start: u32,
    reads_len: u16,
    has_rfu: bool,
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
    ops: Vec<DecodedOp>,
    reads: Vec<ScoreRead>,
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
                ops.push(decode_op(op, cfg));
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

    /// The lowered operations of bundle `pc`.
    #[inline]
    #[must_use]
    pub fn ops_of(&self, pc: usize) -> &[DecodedOp] {
        let m = &self.meta[pc];
        &self.ops[m.ops_start as usize..m.ops_start as usize + m.ops_len as usize]
    }

    /// The scoreboard reads of bundle `pc`.
    #[inline]
    #[must_use]
    pub fn reads_of(&self, pc: usize) -> &[ScoreRead] {
        let m = &self.meta[pc];
        &self.reads[m.reads_start as usize..m.reads_start as usize + m.reads_len as usize]
    }

    /// Whether bundle `pc` contains an RFU operation (and must interlock on
    /// the unit being free).
    #[inline]
    #[must_use]
    pub fn has_rfu(&self, pc: usize) -> bool {
        self.meta[pc].has_rfu
    }

    /// Issued operations of bundle `pc` per functional-unit class.
    #[inline]
    #[must_use]
    pub fn class_counts_of(&self, pc: usize) -> &[u8; NUM_OP_CLASSES] {
        &self.meta[pc].class_counts
    }
}

/// Lowers an RFU opcode, degrading to [`ExecKind::Undecodable`] when the
/// configuration id is absent (possible only in hand-built code).
fn rfu_kind(cfg: Option<u16>, make: fn(u16) -> ExecKind, what: &'static str) -> ExecKind {
    match cfg {
        Some(c) => make(c),
        None => ExecKind::Undecodable { what },
    }
}

fn decode_op(op: &rvliw_isa::Op, cfg: &MachineConfig) -> DecodedOp {
    use Opcode::*;
    let kind = match op.opcode {
        Ldw => ExecKind::Load {
            size: 4,
            sext_from: 0,
        },
        Ldh => ExecKind::Load {
            size: 2,
            sext_from: 16,
        },
        Ldhu => ExecKind::Load {
            size: 2,
            sext_from: 0,
        },
        Ldb => ExecKind::Load {
            size: 1,
            sext_from: 8,
        },
        Ldbu => ExecKind::Load {
            size: 1,
            sext_from: 0,
        },
        Stw => ExecKind::Store { size: 4 },
        Sth => ExecKind::Store { size: 2 },
        Stb => ExecKind::Store { size: 1 },
        Pft => ExecKind::Pft,
        BrT => ExecKind::BrCond {
            on_true: true,
            target: op.target,
        },
        BrF => ExecKind::BrCond {
            on_true: false,
            target: op.target,
        },
        Goto => ExecKind::Goto { target: op.target },
        Call => ExecKind::Call { target: op.target },
        Ret => ExecKind::Ret,
        Halt => ExecKind::Halt,
        Nop => ExecKind::Nop,
        RfuInit => rfu_kind(
            op.cfg,
            ExecKind::RfuInit,
            "rfuinit without a configuration id",
        ),
        RfuSend => rfu_kind(
            op.cfg,
            ExecKind::RfuSend,
            "rfusend without a configuration id",
        ),
        RfuExec | RfuLoop => rfu_kind(
            op.cfg,
            ExecKind::RfuExec,
            "rfuexec without a configuration id",
        ),
        RfuPref => rfu_kind(
            op.cfg,
            ExecKind::RfuPref,
            "rfupref without a configuration id",
        ),
        opcode => match pure_fn(opcode) {
            Some(f) => ExecKind::Pure(f),
            None => ExecKind::Undecodable {
                what: "opcode has no evaluator",
            },
        },
    };
    let mut srcs = [DSrc::Imm(0); MAX_SRCS];
    for (d, &s) in srcs.iter_mut().zip(op.srcs()) {
        *d = match s {
            Src::Gpr(r) if r.is_zero() => DSrc::Zero,
            Src::Gpr(r) => DSrc::Gpr(r.index()),
            Src::Br(b) => DSrc::Br(b.index()),
            Src::Imm(v) => DSrc::Imm(v as u32),
        };
    }
    DecodedOp {
        opcode: op.opcode,
        kind,
        dest: op.dest,
        srcs,
        nsrcs: op.srcs().len() as u8,
        lat: cfg.latency(op),
        class_idx: class_index(op.opcode.class()) as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvliw_asm::Builder;
    use rvliw_isa::Gpr;

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
        assert!((0..d.len()).all(|pc| !d.has_rfu(pc)));
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
        let mut lats = Vec::new();
        for pc in 0..d.len() {
            for op in d.ops_of(pc) {
                lats.push(op.lat);
            }
        }
        assert!(lats.contains(&cfg.lat_mul), "mul latency baked in");
        assert!(lats.contains(&cfg.lat_alu), "alu latency baked in");
    }
}
