//! VLIW bundles: the set of operations issued in one cycle.

use std::fmt;

use crate::{FuClass, MachineConfig, Op};

/// Per-cycle functional-unit usage of a (partial) bundle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceUse {
    /// Issued syllables (operations plus long-immediate extensions).
    pub syllables: usize,
    /// ALU operations (including SIMD and A1 extensions).
    pub alu: usize,
    /// Multiplier operations.
    pub mul: usize,
    /// Load/store/prefetch operations.
    pub mem: usize,
    /// Branch-unit operations.
    pub branch: usize,
    /// RFU dispatches.
    pub rfu: usize,
}

impl ResourceUse {
    /// Accumulates one operation.
    pub fn add(&mut self, op: &Op) {
        self.syllables += op.syllables();
        match op.opcode.class() {
            FuClass::Alu => self.alu += 1,
            FuClass::Mul => self.mul += 1,
            FuClass::Mem => self.mem += 1,
            FuClass::Branch => self.branch += 1,
            FuClass::Rfu => self.rfu += 1,
        }
    }

    /// Whether this usage fits within the machine's per-cycle resources.
    #[must_use]
    pub fn fits(&self, cfg: &MachineConfig) -> bool {
        self.syllables <= cfg.issue_width
            && self.alu <= cfg.num_alus
            && self.mul <= cfg.num_muls
            && self.mem <= cfg.num_mem_units
            && self.branch <= cfg.num_branch_units
            && self.rfu <= cfg.num_rfu_slots
    }
}

/// Error produced when an operation cannot be added to a bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleError {
    /// Issue width or a functional-unit class is exhausted this cycle.
    ResourceConflict {
        /// The class that overflowed (or `None` for total issue width).
        class: Option<FuClass>,
    },
    /// A second control-flow operation in the same bundle.
    MultipleBranches,
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::ResourceConflict { class: Some(c) } => {
                write!(f, "no free {c} slot in bundle")
            }
            BundleError::ResourceConflict { class: None } => {
                write!(f, "bundle issue width exhausted")
            }
            BundleError::MultipleBranches => write!(f, "bundle already contains a branch"),
        }
    }
}

impl std::error::Error for BundleError {}

/// One long instruction word: up to `issue_width` syllables issued together.
///
/// All operations in a bundle read their sources from the register state
/// *before* the bundle executes (parallel-read VLIW semantics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bundle {
    ops: Vec<Op>,
}

impl Bundle {
    /// Creates an empty bundle.
    #[must_use]
    pub fn new() -> Self {
        Bundle::default()
    }

    /// Tries to add an operation, enforcing the machine's per-cycle
    /// resources.
    ///
    /// # Errors
    ///
    /// [`BundleError::ResourceConflict`] when no slot of the required class
    /// (or no syllable) is free; [`BundleError::MultipleBranches`] when a
    /// second control-flow operation is added.
    pub fn push(&mut self, op: Op, cfg: &MachineConfig) -> Result<(), BundleError> {
        if op.opcode.is_control() && self.ops.iter().any(|o| o.opcode.is_control()) {
            return Err(BundleError::MultipleBranches);
        }
        let mut usage = self.resource_use();
        usage.add(&op);
        if !usage.fits(cfg) {
            let class = match op.opcode.class() {
                c @ (FuClass::Alu
                | FuClass::Mul
                | FuClass::Mem
                | FuClass::Branch
                | FuClass::Rfu) => {
                    let over = match c {
                        FuClass::Alu => usage.alu > cfg.num_alus,
                        FuClass::Mul => usage.mul > cfg.num_muls,
                        FuClass::Mem => usage.mem > cfg.num_mem_units,
                        FuClass::Branch => usage.branch > cfg.num_branch_units,
                        FuClass::Rfu => usage.rfu > cfg.num_rfu_slots,
                    };
                    over.then_some(c)
                }
            };
            return Err(BundleError::ResourceConflict { class });
        }
        self.ops.push(op);
        Ok(())
    }

    /// The operations in this bundle.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Whether the bundle holds no operations (an empty cycle).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Current resource usage.
    #[must_use]
    pub fn resource_use(&self) -> ResourceUse {
        let mut u = ResourceUse::default();
        for op in &self.ops {
            u.add(op);
        }
        u
    }

    /// The control-flow operation of this bundle, if any.
    #[must_use]
    pub fn control_op(&self) -> Option<&Op> {
        self.ops.iter().find(|o| o.opcode.is_control())
    }
}

impl fmt::Display for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ops.is_empty() {
            return write!(f, "  nop ;;");
        }
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        write!(f, ";;")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dest, Gpr, Opcode};

    fn cfg() -> MachineConfig {
        MachineConfig::st200()
    }

    fn alu_op(i: u8) -> Op {
        Op::rrr(Opcode::Add, Gpr::new(i), Gpr::new(1), Gpr::new(2))
    }

    #[test]
    fn four_alu_ops_fit() {
        let mut b = Bundle::new();
        for i in 10..14 {
            b.push(alu_op(i), &cfg()).unwrap();
        }
        assert_eq!(b.ops().len(), 4);
    }

    #[test]
    fn fifth_op_rejected_by_issue_width() {
        let mut b = Bundle::new();
        for i in 10..14 {
            b.push(alu_op(i), &cfg()).unwrap();
        }
        let err = b.push(alu_op(20), &cfg()).unwrap_err();
        assert!(matches!(err, BundleError::ResourceConflict { .. }));
    }

    #[test]
    fn only_one_memory_op_per_cycle() {
        let mut b = Bundle::new();
        let ld = Op::rri(Opcode::Ldw, Gpr::new(4), Gpr::new(5), 0);
        b.push(ld, &cfg()).unwrap();
        let err = b
            .push(Op::rri(Opcode::Ldw, Gpr::new(6), Gpr::new(5), 4), &cfg())
            .unwrap_err();
        assert_eq!(
            err,
            BundleError::ResourceConflict {
                class: Some(FuClass::Mem)
            }
        );
    }

    #[test]
    fn only_two_multiplies_per_cycle() {
        let mut b = Bundle::new();
        let m = |d| Op::rrr(Opcode::Mul, Gpr::new(d), Gpr::new(1), Gpr::new(2));
        b.push(m(10), &cfg()).unwrap();
        b.push(m(11), &cfg()).unwrap();
        let err = b.push(m(12), &cfg()).unwrap_err();
        assert_eq!(
            err,
            BundleError::ResourceConflict {
                class: Some(FuClass::Mul)
            }
        );
    }

    #[test]
    fn long_immediate_consumes_extra_syllable() {
        let mut b = Bundle::new();
        let long = Op::rri(Opcode::Add, Gpr::new(1), Gpr::new(2), 100_000);
        b.push(long, &cfg()).unwrap();
        // Two syllables used; only two 1-syllable ops fit now.
        b.push(alu_op(10), &cfg()).unwrap();
        b.push(alu_op(11), &cfg()).unwrap();
        let err = b.push(alu_op(12), &cfg()).unwrap_err();
        assert_eq!(err, BundleError::ResourceConflict { class: None });
    }

    #[test]
    fn two_branches_rejected() {
        let mut b = Bundle::new();
        let br = Op::new(Opcode::Goto, Dest::None, &[]).with_target(1);
        b.push(br, &cfg()).unwrap();
        assert_eq!(
            b.push(br, &cfg()).unwrap_err(),
            BundleError::MultipleBranches
        );
    }

    #[test]
    fn rfu_slot_is_single() {
        let mut b = Bundle::new();
        let send = Op::new(Opcode::RfuSend, Dest::None, &[Gpr::new(1).into()]).with_cfg(0);
        b.push(send, &cfg()).unwrap();
        let err = b.push(send, &cfg()).unwrap_err();
        assert_eq!(
            err,
            BundleError::ResourceConflict {
                class: Some(FuClass::Rfu)
            }
        );
    }

    #[test]
    fn a1_extension_ops_use_alu_slots_not_rfu() {
        // Four A1 extension ops can issue in one cycle (the paper's
        // "up to 4 instructions per cycle" assumption for scenario A1).
        let mut b = Bundle::new();
        for i in 10..14 {
            let op = Op::rrr(Opcode::Avgh4, Gpr::new(i), Gpr::new(1), Gpr::new(2));
            b.push(op, &cfg()).unwrap();
        }
        assert_eq!(b.resource_use().alu, 4);
        assert_eq!(b.resource_use().rfu, 0);
    }
}
