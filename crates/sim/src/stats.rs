//! Core-side simulation counters.

use std::fmt;

/// Counters for the VLIW core (memory and RFU counters live in their own
/// crates and are snapshotted alongside).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total machine cycles (issue + all stall kinds).
    pub cycles: u64,
    /// Bundles issued.
    pub bundles: u64,
    /// Operations issued.
    pub ops: u64,
    /// Cycles lost to scoreboard interlocks (waiting on operand latency).
    pub interlock_stalls: u64,
    /// Cycles lost to RFU-busy interlocks (a kernel loop in flight).
    pub rfu_busy_stalls: u64,
    /// Taken branches.
    pub branches_taken: u64,
    /// Cycles lost to taken-branch bubbles.
    pub branch_stall_cycles: u64,
    /// Cycles lost to instruction-cache misses.
    pub ifetch_stall_cycles: u64,
    /// Operations issued per functional-unit class
    /// (ALU, MUL, LSU, branch, RFU) — the paper's unit-mix view.
    pub ops_by_class: [u64; 5],
}

impl SimStats {
    /// Issued operations per cycle — the exploited ILP.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.ops as f64 / self.cycles as f64
    }

    /// Element-wise difference (`self - earlier`).
    #[must_use]
    pub fn delta(&self, earlier: &SimStats) -> SimStats {
        SimStats {
            cycles: self.cycles - earlier.cycles,
            bundles: self.bundles - earlier.bundles,
            ops: self.ops - earlier.ops,
            interlock_stalls: self.interlock_stalls - earlier.interlock_stalls,
            rfu_busy_stalls: self.rfu_busy_stalls - earlier.rfu_busy_stalls,
            branches_taken: self.branches_taken - earlier.branches_taken,
            branch_stall_cycles: self.branch_stall_cycles - earlier.branch_stall_cycles,
            ifetch_stall_cycles: self.ifetch_stall_cycles - earlier.ifetch_stall_cycles,
            ops_by_class: std::array::from_fn(|i| self.ops_by_class[i] - earlier.ops_by_class[i]),
        }
    }
}

/// Stable index of a functional-unit class in [`SimStats::ops_by_class`].
#[must_use]
pub fn class_index(class: rvliw_isa::FuClass) -> usize {
    match class {
        rvliw_isa::FuClass::Alu => 0,
        rvliw_isa::FuClass::Mul => 1,
        rvliw_isa::FuClass::Mem => 2,
        rvliw_isa::FuClass::Branch => 3,
        rvliw_isa::FuClass::Rfu => 4,
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycles {}  bundles {}  ops {} (ipc {:.2})  interlock {}  rfu-busy {}  br-stall {}",
            self.cycles,
            self.bundles,
            self.ops,
            self.ipc(),
            self.interlock_stalls,
            self.rfu_busy_stalls,
            self.branch_stall_cycles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn class_indices_are_distinct() {
        use rvliw_isa::FuClass::*;
        let idx: Vec<usize> = [Alu, Mul, Mem, Branch, Rfu]
            .into_iter()
            .map(class_index)
            .collect();
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn delta_subtracts() {
        let a = SimStats {
            cycles: 100,
            ops: 50,
            ..Default::default()
        };
        let b = SimStats {
            cycles: 40,
            ops: 20,
            ..Default::default()
        };
        let d = a.delta(&b);
        assert_eq!((d.cycles, d.ops), (60, 30));
    }
}
