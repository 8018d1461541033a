#![warn(missing_docs)]
//! # rvliw-sim
//!
//! Cycle-level simulator for the RFU-augmented ST200-like VLIW.
//!
//! The model follows the paper's compiled-simulator platform:
//!
//! * one [`Code`](rvliw_asm::Code) bundle issues per cycle (4-issue, parallel-read VLIW
//!   semantics);
//! * a register **scoreboard** interlocks on compiler-visible latencies
//!   (ALU 1, multiply 3, load 3, compare-to-branch 2);
//! * loads and stores go through the modelled data cache; **on a data-cache
//!   miss the whole machine stalls**, and those stall cycles are what
//!   Tables 4–5 of the paper report;
//! * instruction fetch goes through the 128 KB I-cache (the benchmark fits
//!   entirely, so I-stalls are negligible — as the paper assumes);
//! * `RFU*` operations dispatch to the [`Rfu`](rvliw_rfu::Rfu) model: short custom
//!   instructions execute in one cycle, macroblock prefetches run as a
//!   separate non-blocking thread, and kernel-loop instructions occupy the
//!   RFU for their static latency plus any memory stalls.
//!
//! ```
//! use rvliw_asm::Builder;
//! use rvliw_isa::Gpr;
//! use rvliw_sim::Machine;
//!
//! let mut b = Builder::new("doc");
//! b.movi(Gpr::new(1), 20);
//! b.addi(Gpr::new(2), Gpr::new(1), 22);
//! b.halt();
//! let code = rvliw_asm::schedule_st200(&b.build()).unwrap();
//! let mut m = Machine::st200();
//! m.run(&code).unwrap();
//! assert_eq!(m.gpr(Gpr::new(2)), 42);
//! ```

pub mod block;
pub mod decode;
pub mod exec;
pub mod machine;
pub mod stats;
pub mod substrate;

pub use block::{backend_totals, BackendStats, ExecBackend};
pub use decode::DecodedCode;
pub use machine::{Machine, RunSummary, SimError, Snapshot};
pub use rvliw_isa::Substrate;
pub use stats::SimStats;
pub use substrate::{Core, ScalarCore, VliwCore, SCALAR_EXTRA_BRANCH_BUBBLE};

/// Bytes of instruction memory charged per bundle when probing the I-cache
/// (four 32-bit syllables).
pub const BUNDLE_BYTES: u32 = 16;
