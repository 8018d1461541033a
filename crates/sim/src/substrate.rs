//! The [`Core`] trait: a swappable fetch/issue engine over the machine.
//!
//! The paper's results are measured on a single 4-issue VLIW host; the
//! cross-substrate study asks how much of the RFU win survives on a
//! 1-issue host. Both engines share everything architectural — register
//! file, memory hierarchy, fault plans, RFU datapath, and the lowered
//! micro-ops of [`crate::decode`] run through the one executor,
//! `exec::exec` — and differ only in *when* operations issue:
//!
//! * [`VliwCore`] issues a whole bundle per cycle (parallel-read VLIW
//!   semantics, the paper's machine);
//! * [`ScalarCore`] issues one operation per cycle on an in-order
//!   5-stage pipe, with a longer branch refill.
//!
//! Both read operands against pre-bundle register state and defer
//! write-back to bundle retirement, so every program produces identical
//! architectural results (register file, memory contents, access counts,
//! RFU outputs) on both substrates — only cycle and stall counts differ.

use rvliw_asm::Code;
use rvliw_trace::{StallCause, Tracer};

use crate::decode::{DecodedCode, ScoreRead};
use crate::exec::{exec, exec_bundle, Pending};
use crate::machine::{Machine, SimError, TraceHook};
use crate::stats::SimStats;
use crate::BUNDLE_BYTES;

/// Extra branch-taken bubble cycles the scalar 5-stage pipe pays on top
/// of the machine's configured penalty (deeper front end to refill).
pub const SCALAR_EXTRA_BRANCH_BUBBLE: u64 = 2;

/// One substrate's fetch/issue engine over the shared [`Machine`] state.
///
/// The driver loop calls, per bundle: [`Core::fetch`], then
/// [`Core::scoreboard`], then [`Core::issue`], then [`Core::retire`].
/// Fetch, scoreboard, retirement and the stats surface are shared
/// (provided methods); the issue policy and branch bubble are what a
/// substrate defines.
pub trait Core {
    /// Substrate name for diagnostics.
    const NAME: &'static str;

    /// Branch-taken bubble length on this substrate, in cycles.
    #[must_use]
    fn branch_bubble(m: &Machine) -> u64;

    /// Issues and executes the bundle at `pc` under this substrate's
    /// issue policy, reading operands against pre-bundle register state
    /// and leaving deferred writes and control flow in `out` for
    /// [`Core::retire`].
    ///
    /// # Errors
    ///
    /// As for [`Machine::run`].
    fn issue<T: Tracer + ?Sized>(
        m: &mut Machine,
        decoded: &DecodedCode,
        pc: usize,
        out: &mut Pending,
        tracer: &mut T,
    ) -> Result<(), SimError>;

    /// Charges instruction fetch for the bundle at `pc` (shared: both
    /// substrates fetch each bundle once, at the same addresses).
    fn fetch<T: Tracer + ?Sized>(m: &mut Machine, pc: usize, tracer: &mut T) {
        let istall = m
            .mem
            .ifetch_traced(pc as u32 * BUNDLE_BYTES, m.cycle, tracer);
        if istall > 0 {
            tracer.stall(m.cycle, pc, StallCause::Ifetch, istall);
        }
        m.cycle += istall;
        m.stats.ifetch_stall_cycles += istall;
    }

    /// Scoreboard interlock (shared): every source of every operation in
    /// the bundle must be ready (parallel-read semantics), and RFU
    /// operations wait for the unit to be free. The decoded read list
    /// already excludes immediates and `$r0`, which are always ready.
    fn scoreboard<T: Tracer + ?Sized>(
        m: &mut Machine,
        decoded: &DecodedCode,
        pc: usize,
        tracer: &mut T,
    ) {
        let mut ready_at = m.cycle;
        for &r in decoded.reads_of(pc) {
            ready_at = ready_at.max(match r {
                ScoreRead::Gpr(i) => m.gpr_ready[i as usize],
                ScoreRead::Br(i) => m.br_ready[i as usize],
            });
        }
        if decoded.meta(pc).has_rfu {
            ready_at = ready_at.max(m.rfu_busy_until);
        }
        let wait = ready_at - m.cycle;
        if wait > 0 {
            // Any stall that overlaps the RFU's busy window is time the
            // core spends waiting for the reconfigurable unit (either
            // for the unit itself or for a long-latency result).
            let rfu_wait = m.rfu_busy_until.saturating_sub(m.cycle).min(wait);
            m.stats.rfu_busy_stalls += rfu_wait;
            m.stats.interlock_stalls += wait - rfu_wait;
            if rfu_wait > 0 {
                tracer.stall(m.cycle, pc, StallCause::RfuBusy, rfu_wait);
            }
            if wait > rfu_wait {
                tracer.stall(m.cycle, pc, StallCause::Interlock, wait - rfu_wait);
            }
            m.cycle += wait;
        }
    }

    /// Retires the bundle (shared): applies deferred write-backs, counts
    /// the bundle, spends its final issue cycle and resolves control flow
    /// with this substrate's branch bubble.
    fn retire<T: Tracer + ?Sized>(m: &mut Machine, out: &Pending, pc: &mut usize, tracer: &mut T) {
        out.write_back(m);
        m.stats.bundles += 1;
        m.cycle += 1;
        match out.next_pc {
            Some(t) => {
                m.stats.branches_taken += 1;
                let bubble = Self::branch_bubble(m);
                if bubble > 0 {
                    tracer.stall(m.cycle, *pc, StallCause::BranchBubble, bubble);
                }
                *pc = t;
                m.cycle += bubble;
                m.stats.branch_stall_cycles += bubble;
            }
            None => *pc += 1,
        }
    }

    /// The substrate-independent stats surface (all counters live on the
    /// shared machine; substrates only differ in how fast they advance).
    #[must_use]
    fn stats(m: &Machine) -> &SimStats {
        &m.stats
    }
}

/// Bumps the per-class and total op counters for the bundle at `pc`.
fn count_ops(m: &mut Machine, decoded: &DecodedCode, pc: usize) {
    m.stats.ops += decoded.ops_of(pc).len() as u64;
    for (total, &n) in m
        .stats
        .ops_by_class
        .iter_mut()
        .zip(decoded.class_counts_of(pc))
    {
        *total += u64::from(n);
    }
}

/// The paper's 4-issue VLIW engine: the whole bundle issues in one cycle.
#[derive(Debug, Clone, Copy)]
pub struct VliwCore;

impl Core for VliwCore {
    const NAME: &'static str = "vliw4";

    fn branch_bubble(m: &Machine) -> u64 {
        m.branch_taken_penalty
    }

    fn issue<T: Tracer + ?Sized>(
        m: &mut Machine,
        decoded: &DecodedCode,
        pc: usize,
        out: &mut Pending,
        tracer: &mut T,
    ) -> Result<(), SimError> {
        let ops = decoded.ops_of(pc);
        tracer.bundle(m.cycle, pc, ops.len());
        count_ops(m, decoded, pc);
        let mut cyc = m.cycle;
        let r = exec_bundle::<false, T>(m, ops, pc, &mut cyc, out, tracer);
        m.cycle = cyc;
        r
    }
}

/// The scalar in-order 5-stage RISC engine: one operation per cycle.
///
/// Operands still read pre-bundle state and write-back is still deferred
/// to retirement, so architectural results are identical to
/// [`VliwCore`]'s — the substrate only spends `ops.len()` issue cycles
/// per bundle instead of one, and pays
/// [`SCALAR_EXTRA_BRANCH_BUBBLE`] extra cycles per taken branch.
#[derive(Debug, Clone, Copy)]
pub struct ScalarCore;

impl Core for ScalarCore {
    const NAME: &'static str = "scalar";

    fn branch_bubble(m: &Machine) -> u64 {
        m.branch_taken_penalty + SCALAR_EXTRA_BRANCH_BUBBLE
    }

    fn issue<T: Tracer + ?Sized>(
        m: &mut Machine,
        decoded: &DecodedCode,
        pc: usize,
        out: &mut Pending,
        tracer: &mut T,
    ) -> Result<(), SimError> {
        let ops = decoded.ops_of(pc);
        tracer.bundle(m.cycle, pc, ops.len());
        count_ops(m, decoded, pc);
        let mut cyc = m.cycle;
        let r = ops.iter().enumerate().try_for_each(|(i, op)| {
            // One issue slot per operation; the last op's slot is spent
            // by the shared retirement step.
            if i > 0 {
                cyc += 1;
            }
            exec::<false, T>(m, op, pc, &mut cyc, out, tracer)
        });
        m.cycle = cyc;
        r
    }
}

/// The shared interpreter driver: fetch → scoreboard → issue → retire,
/// per bundle, until `halt`, monomorphized per substrate (and per tracer,
/// so the untraced loop stays zero-cost).
pub(crate) fn run_decoded<C: Core, T: Tracer + ?Sized>(
    m: &mut Machine,
    code: &Code,
    decoded: &DecodedCode,
    mut trace: Option<TraceHook<'_>>,
    tracer: &mut T,
    limit: u64,
    mut pc: usize,
) -> Result<(), SimError> {
    let mut out = Pending::new();
    // Call stack is implicit: `call` writes the return bundle index to
    // `$r63`, `return` jumps to it.
    loop {
        if pc >= decoded.len() {
            return Err(SimError::FellOffEnd { pc });
        }
        if m.cycle >= limit {
            return Err(SimError::CycleLimit {
                limit: m.cycle_limit,
            });
        }
        if let Some(t) = trace.as_deref_mut() {
            t(m.cycle, pc, &code.bundles()[pc]);
        }
        C::fetch(m, pc, tracer);
        C::scoreboard(m, decoded, pc, tracer);
        out.reset();
        C::issue(m, decoded, pc, &mut out, tracer)?;
        C::retire(m, &out, &mut pc, tracer);
        if out.halted {
            return Ok(());
        }
    }
}
