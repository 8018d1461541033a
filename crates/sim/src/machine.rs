//! The machine: register state, scoreboard, issue loop.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use rvliw_asm::{Code, CodeKey};
use rvliw_fault::FaultPlan;
use rvliw_isa::{Dest, Gpr, MachineConfig, Substrate, NUM_BRS, NUM_GPRS};
use rvliw_mem::{MemConfig, MemError, MemStats, MemorySystem};
use rvliw_rfu::{Rfu, RfuStats};
use rvliw_trace::{NullTracer, StallCause, Tracer};

use crate::block::{self, BackendStats, BlockExit, CompiledBlocks, ExecBackend};
use crate::decode::{DecodedCode, DecodedOp, ExecKind};
use crate::stats::SimStats;
use crate::substrate::{self, ScalarCore, VliwCore};

/// Per-bundle execution-trace hook: `(cycle, pc, bundle)`.
pub(crate) type TraceHook<'a> = &'a mut dyn FnMut(u64, usize, &rvliw_isa::Bundle);

/// Widest bundle the issue scratch supports (the machine configuration may
/// widen the datapath beyond the default 4-issue, up to this bound).
pub const MAX_ISSUE: usize = 16;

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle budget ran out before `halt` (runaway program).
    CycleLimit {
        /// The budget that was exceeded.
        limit: u64,
    },
    /// An RFU dispatch failed (unknown configuration, missing operands…).
    Rfu(String),
    /// The program counter left the program without a `halt`.
    FellOffEnd {
        /// The out-of-range bundle index.
        pc: usize,
    },
    /// A load or store was rejected by the memory system.
    Mem(MemError),
    /// A taken branch, goto or call had no resolved target (hand-built,
    /// unscheduled code).
    UnresolvedTarget {
        /// Bundle index of the faulting control-flow operation.
        pc: usize,
    },
    /// An operation could not be lowered at decode time (hand-built
    /// code; see [`ExecKind::Undecodable`](crate::decode::ExecKind)).
    Undecodable {
        /// What was missing.
        what: &'static str,
    },
}

impl SimError {
    /// Whether a supervised rerun could plausibly succeed.
    ///
    /// Transient failures are the ones fault injection (or an overloaded
    /// budget under it) produces: a cycle-budget overrun and any RFU
    /// failure (which is where injected line-buffer delays and deadlocks
    /// surface). Structural program failures — memory violations, falling
    /// off the program, unresolved targets, undecodable operations — are
    /// permanent: the same program fails the same way every time.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            SimError::CycleLimit { .. } | SimError::Rfu(_) => true,
            SimError::FellOffEnd { .. }
            | SimError::Mem(_)
            | SimError::UnresolvedTarget { .. }
            | SimError::Undecodable { .. } => false,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} exceeded"),
            SimError::Rfu(e) => write!(f, "RFU error: {e}"),
            SimError::FellOffEnd { pc } => write!(f, "execution fell off the program at {pc}"),
            SimError::Mem(e) => write!(f, "memory error: {e}"),
            SimError::UnresolvedTarget { pc } => {
                write!(f, "control-flow operation at {pc} has no resolved target")
            }
            SimError::Undecodable { what } => write!(f, "undecodable operation: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MemError> for SimError {
    fn from(e: MemError) -> Self {
        SimError::Mem(e)
    }
}

/// Summary of one [`Machine::run`] invocation (deltas over the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Cycles elapsed during this run.
    pub cycles: u64,
    /// Core counters delta.
    pub stats: SimStats,
    /// Memory counters delta.
    pub mem: MemStats,
    /// RFU counters delta.
    pub rfu: RfuStats,
}

/// A point-in-time snapshot of all counters, for measuring regions that
/// span several runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Machine cycle at the snapshot.
    pub cycle: u64,
    /// Core counters.
    pub stats: SimStats,
    /// Memory counters.
    pub mem: MemStats,
    /// RFU counters.
    pub rfu: RfuStats,
}

impl Snapshot {
    /// The region between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &Snapshot) -> RunSummary {
        RunSummary {
            cycles: self.cycle - earlier.cycle,
            stats: self.stats.delta(&earlier.stats),
            mem: self.mem.delta(&earlier.mem),
            rfu: self.rfu.delta(&earlier.rfu),
        }
    }
}

/// The RFU-augmented VLIW machine.
///
/// State persists across [`Machine::run`] calls — caches stay warm, the
/// cycle counter keeps counting, RFU prefetches keep flying — so a workload
/// driver can invoke a kernel once per motion-estimation candidate and
/// measure realistic cross-call memory behaviour.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    /// The memory hierarchy.
    pub mem: MemorySystem,
    /// The reconfigurable functional unit.
    pub rfu: Rfu,
    pub(crate) gpr: [u32; NUM_GPRS],
    pub(crate) br: [bool; NUM_BRS],
    pub(crate) gpr_ready: [u64; NUM_GPRS],
    pub(crate) br_ready: [u64; NUM_BRS],
    pub(crate) rfu_busy_until: u64,
    pub(crate) cycle: u64,
    pub(crate) stats: SimStats,
    /// Extra cycles charged on a taken branch (pipeline refill).
    pub branch_taken_penalty: u64,
    /// Per-run cycle budget guarding against runaway programs.
    pub cycle_limit: u64,
    /// Which issue loop runs eligible programs (new machines inherit
    /// [`ExecBackend::process_default`]). The choice never changes results
    /// — only how fast they are simulated.
    pub backend: ExecBackend,
    /// Pre-decoded programs, keyed by content address
    /// ([`Code::content_key`]) so separately scheduled but identical
    /// programs share one lowering and different programs can never
    /// collide. The lowering bakes in this machine's latencies, so the
    /// cache is per-instance.
    decoded: HashMap<CodeKey, Arc<DecodedCode>>,
    /// Block-compiled programs, same keying discipline as `decoded`.
    blocks: HashMap<CodeKey, Arc<CompiledBlocks>>,
    /// Whether the installed fault plan is the zero plan — the
    /// block-compiled backend only engages when it is (fault injection
    /// observes individual accesses, which blocks do not replay for it).
    fault_inert: bool,
    pub(crate) backend_stats: BackendStats,
    /// Identity memo for the hot run-the-same-program-again path: the
    /// [`Code::id`] whose artifacts `memo_decoded`/`memo_blocks` hold
    /// (`0` = none; ids start at 1). Purely an accelerator over the
    /// content-keyed maps — two distinct `Code` objects with equal content
    /// still share one lowering through the maps.
    memo_code_id: u64,
    memo_decoded: Option<Arc<DecodedCode>>,
    memo_blocks: Option<Arc<CompiledBlocks>>,
    /// Block-residency memo for the block backend: `(block address,
    /// icache contents generation)` of a block whose lines were all
    /// resident on its last full pass. Block addresses stay valid because
    /// compiled blocks are cached for the machine's lifetime.
    pub(crate) icache_resident: (usize, u64),
}

/// A machine's backend telemetry joins the process-wide totals once, here,
/// instead of on every run.
impl Drop for Machine {
    fn drop(&mut self) {
        block::add_to_totals(&self.backend_stats);
    }
}

impl Machine {
    /// A machine with the paper's default core and memory configuration.
    #[must_use]
    pub fn st200() -> Self {
        Machine::new(MachineConfig::st200(), MemConfig::st200())
    }

    /// A machine with explicit configurations.
    #[must_use]
    pub fn new(cfg: MachineConfig, mem_cfg: MemConfig) -> Self {
        Machine {
            cfg,
            mem: MemorySystem::new(mem_cfg),
            rfu: Rfu::new(),
            gpr: [0; NUM_GPRS],
            br: [false; NUM_BRS],
            gpr_ready: [0; NUM_GPRS],
            br_ready: [0; NUM_BRS],
            rfu_busy_until: 0,
            cycle: 0,
            stats: SimStats::default(),
            branch_taken_penalty: 1,
            cycle_limit: 200_000_000,
            backend: ExecBackend::process_default(),
            decoded: HashMap::new(),
            blocks: HashMap::new(),
            fault_inert: true,
            backend_stats: BackendStats::default(),
            memo_code_id: 0,
            memo_decoded: None,
            memo_blocks: None,
            icache_resident: (0, 0),
        }
    }

    /// The core configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current machine cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Reads a general-purpose register.
    #[must_use]
    pub fn gpr(&self, r: Gpr) -> u32 {
        if r.is_zero() {
            0
        } else {
            self.gpr[r.index() as usize]
        }
    }

    /// Writes a general-purpose register (immediately ready — used to pass
    /// arguments before a run).
    pub fn set_gpr(&mut self, r: Gpr, value: u32) {
        if !r.is_zero() {
            self.gpr[r.index() as usize] = value;
            self.gpr_ready[r.index() as usize] = self.cycle;
        }
    }

    /// Reads a branch register.
    #[must_use]
    pub fn br(&self, b: rvliw_isa::Br) -> bool {
        self.br[b.index() as usize]
    }

    /// Snapshot of every counter.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cycle: self.cycle,
            stats: self.stats,
            mem: self.mem.stats(),
            rfu: self.rfu.stats,
        }
    }

    /// Derives per-component injectors from `plan` (salted with `salt`,
    /// typically a scenario label) and installs them into the memory
    /// system and the RFU. The zero-fault plan installs inert injectors.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, salt: &str) {
        self.fault_inert = plan.is_inert();
        self.mem.set_fault(plan.injector("mem", salt));
        self.rfu.set_fault(plan.injector("rfu", salt));
    }

    /// Telemetry of the execution-backend dispatch on this machine (see
    /// [`BackendStats`]; it joins the process-wide
    /// [`backend_totals`](crate::backend_totals) when the machine is
    /// dropped).
    #[must_use]
    pub fn backend_stats(&self) -> BackendStats {
        self.backend_stats
    }

    /// The pre-decoded form of `code` for this machine's configuration,
    /// lowering and caching it on first sight, keyed by content address
    /// ([`Code::content_key`]) rather than the process-unique [`Code::id`]
    /// so identical programs scheduled separately share one lowering.
    pub fn decoded(&mut self, code: &Code) -> Arc<DecodedCode> {
        if self.memo_code_id == code.id() {
            if let Some(d) = &self.memo_decoded {
                return Arc::clone(d);
            }
        }
        let key = code.content_key();
        let d = match self.decoded.get(&key) {
            Some(d) => Arc::clone(d),
            None => {
                let d = Arc::new(DecodedCode::new(code, &self.cfg));
                self.decoded.insert(key, Arc::clone(&d));
                d
            }
        };
        self.memo_code_id = code.id();
        self.memo_decoded = Some(Arc::clone(&d));
        self.memo_blocks = None;
        d
    }

    /// The block-compiled form of `code` (same content-address keying as
    /// [`Machine::decoded`]), compiling on first sight and bumping the
    /// backend telemetry.
    fn compiled_blocks(&mut self, code: &Code, decoded: &DecodedCode) -> Arc<CompiledBlocks> {
        self.backend_stats.block_runs += 1;
        self.backend_stats.compile_lookups += 1;
        if self.memo_code_id == code.id() {
            if let Some(b) = &self.memo_blocks {
                return Arc::clone(b);
            }
        }
        let key = code.content_key();
        let b = match self.blocks.get(&key) {
            Some(b) => Arc::clone(b),
            None => {
                self.backend_stats.compile_misses += 1;
                let shift = block::icache_line_shift(&self.mem);
                let b = Arc::new(CompiledBlocks::compile(code, decoded, shift));
                self.blocks.insert(key, Arc::clone(&b));
                b
            }
        };
        // `decoded` ran first in every run path, so the memo already names
        // this code object; attach the blocks to it.
        if self.memo_code_id == code.id() {
            self.memo_blocks = Some(Arc::clone(&b));
        }
        b
    }

    /// Runs `code` like [`Machine::run`], invoking `trace` before each
    /// bundle issues with `(cycle, pc, bundle)` — an execution trace for
    /// debugging and teaching.
    ///
    /// # Errors
    ///
    /// As for [`Machine::run`].
    pub fn run_traced(
        &mut self,
        code: &Code,
        mut trace: impl FnMut(u64, usize, &rvliw_isa::Bundle),
    ) -> Result<RunSummary, SimError> {
        let decoded = self.decoded(code);
        self.run_inner(code, &decoded, Some(&mut trace), &mut NullTracer)
    }

    /// Runs `code` from its first bundle until `halt`.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleLimit`] on runaway, [`SimError::FellOffEnd`] when
    /// the program counter leaves the program, [`SimError::Rfu`] on an RFU
    /// protocol violation.
    pub fn run(&mut self, code: &Code) -> Result<RunSummary, SimError> {
        let decoded = self.decoded(code);
        self.run_inner(code, &decoded, None, &mut NullTracer)
    }

    /// Runs `code` like [`Machine::run`], emitting structured trace events
    /// (bundle issues, stall causes, cache traffic, RFU pipeline activity)
    /// into `tracer`.
    ///
    /// The issue loop is generic over the tracer type, so a
    /// [`NullTracer`] monomorphizes to exactly the untraced loop — tracing
    /// is zero-cost when disabled.
    ///
    /// # Errors
    ///
    /// As for [`Machine::run`].
    pub fn run_with_tracer<T: Tracer + ?Sized>(
        &mut self,
        code: &Code,
        tracer: &mut T,
    ) -> Result<RunSummary, SimError> {
        let decoded = self.decoded(code);
        self.run_inner(code, &decoded, None, tracer)
    }

    /// Runs `code` with both a per-bundle hook (as in
    /// [`Machine::run_traced`]) and a structured event sink (as in
    /// [`Machine::run_with_tracer`]).
    ///
    /// # Errors
    ///
    /// As for [`Machine::run`].
    pub fn run_traced_with_tracer<T: Tracer + ?Sized>(
        &mut self,
        code: &Code,
        mut trace: impl FnMut(u64, usize, &rvliw_isa::Bundle),
        tracer: &mut T,
    ) -> Result<RunSummary, SimError> {
        let decoded = self.decoded(code);
        self.run_inner(code, &decoded, Some(&mut trace), tracer)
    }

    fn run_inner<T: Tracer + ?Sized>(
        &mut self,
        code: &Code,
        decoded: &DecodedCode,
        trace: Option<TraceHook<'_>>,
        tracer: &mut T,
    ) -> Result<RunSummary, SimError> {
        let before = self.snapshot();
        let limit = self.cycle + self.cycle_limit;
        let mut pc = 0usize;
        // Backend dispatch: block-compiled execution requires an
        // observation-free run — no per-bundle trace hook, a null tracer
        // and no armed fault injection — because compiled blocks do not
        // replay per-access events for observers, and is only compiled
        // for the VLIW issue policy (on other substrates the run cleanly
        // falls back to the interpreter). When a control transfer lands
        // mid-block (a computed `return` target), block execution hands
        // the current pc back and the interpreter continues the same run
        // below.
        if self.cfg.substrate == Substrate::Vliw4
            && self.backend != ExecBackend::Interpreter
            && trace.is_none()
            && tracer.is_null()
            && self.fault_inert
        {
            let blocks = self.compiled_blocks(code, decoded);
            match block::run_blocks(self, &blocks, limit)? {
                BlockExit::Halted => {
                    self.stats.cycles = self.cycle;
                    return Ok(self.snapshot().since(&before));
                }
                BlockExit::Fallback(p) => {
                    pc = p;
                    self.backend_stats.fallbacks += 1;
                }
            }
        } else {
            self.backend_stats.interp_runs += 1;
        }
        // The interpreter proper: the fetch → scoreboard → issue → retire
        // driver, monomorphized per substrate (see [`crate::substrate`]).
        match self.cfg.substrate {
            Substrate::Vliw4 => {
                substrate::run_decoded::<VliwCore, T>(
                    self, code, decoded, trace, tracer, limit, pc,
                )?;
            }
            Substrate::ScalarInOrder => {
                substrate::run_decoded::<ScalarCore, T>(
                    self, code, decoded, trace, tracer, limit, pc,
                )?;
            }
        }
        self.stats.cycles = self.cycle;
        Ok(self.snapshot().since(&before))
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_op<T: Tracer + ?Sized>(
        &mut self,
        op: &DecodedOp,
        srcs: &[u32],
        writes: &mut [(Dest, u32, u64); MAX_ISSUE],
        nwrites: &mut usize,
        next_pc: &mut Option<usize>,
        halted: &mut bool,
        pc: usize,
        tracer: &mut T,
    ) -> Result<(), SimError> {
        let push = |writes: &mut [(Dest, u32, u64); MAX_ISSUE],
                    nwrites: &mut usize,
                    w: (Dest, u32, u64)| {
            writes[*nwrites] = w;
            *nwrites += 1;
        };
        let lat = op.lat;
        match op.kind {
            ExecKind::Pure(f) => {
                let value = f(srcs);
                push(writes, nwrites, (op.dest, value, self.cycle + lat));
            }
            ExecKind::Load { size, sext_from } => {
                let addr = srcs[0].wrapping_add(srcs.get(1).copied().unwrap_or(0));
                let acc = self.mem.read_traced(addr, size, self.cycle, tracer)?;
                if acc.stall > 0 {
                    tracer.stall(self.cycle, pc, StallCause::DCache, acc.stall);
                }
                // Whole-machine stall on a miss.
                self.cycle += acc.stall;
                let value = match sext_from {
                    16 => acc.value as u16 as i16 as i32 as u32,
                    8 => acc.value as u8 as i8 as i32 as u32,
                    _ => acc.value,
                };
                push(writes, nwrites, (op.dest, value, self.cycle + lat));
            }
            ExecKind::Store { size } => {
                let value = srcs[0];
                let addr = srcs[1].wrapping_add(srcs.get(2).copied().unwrap_or(0));
                let acc = self
                    .mem
                    .write_traced(addr, size, value, self.cycle, tracer)?;
                if acc.stall > 0 {
                    tracer.stall(self.cycle, pc, StallCause::DCache, acc.stall);
                }
                self.cycle += acc.stall;
            }
            ExecKind::Pft => {
                let addr = srcs[0].wrapping_add(srcs.get(1).copied().unwrap_or(0));
                let _ = self.mem.prefetch_traced(addr, self.cycle, tracer);
            }
            ExecKind::BrCond { on_true, target } => {
                let cond = srcs[0] != 0;
                if cond == on_true {
                    let t = target.ok_or(SimError::UnresolvedTarget { pc })?;
                    *next_pc = Some(t as usize);
                }
            }
            ExecKind::Goto { target } => {
                let t = target.ok_or(SimError::UnresolvedTarget { pc })?;
                *next_pc = Some(t as usize);
            }
            ExecKind::Call { target } => {
                push(
                    writes,
                    nwrites,
                    (Dest::Gpr(Gpr::LINK), (pc + 1) as u32, self.cycle + 1),
                );
                let t = target.ok_or(SimError::UnresolvedTarget { pc })?;
                *next_pc = Some(t as usize);
            }
            ExecKind::Ret => {
                let target = srcs.first().copied().unwrap_or_else(|| self.gpr(Gpr::LINK));
                *next_pc = Some(target as usize);
            }
            ExecKind::Halt => *halted = true,
            ExecKind::Nop => {}
            ExecKind::RfuInit(cfg) => self.rfu_init(cfg, pc, tracer)?,
            ExecKind::RfuSend(cfg) => self.rfu_send(cfg, srcs, tracer)?,
            ExecKind::RfuExec(cfg) => {
                let (value, ready) = self.rfu_exec(cfg, srcs, lat, pc, tracer)?;
                push(writes, nwrites, (op.dest, value, ready));
            }
            ExecKind::RfuPref(cfg) => self.rfu_pref(cfg, srcs[0], tracer)?,
            ExecKind::Undecodable { what } => return Err(SimError::Undecodable { what }),
        }
        Ok(())
    }

    // The RFU operations at the current cycle, shared by both engines so
    // each has one definition.

    /// `rfuinit`: activates configuration `cfg`, stalling the machine for
    /// any reconfiguration penalty.
    pub(crate) fn rfu_init<T: Tracer + ?Sized>(
        &mut self,
        cfg: u16,
        pc: usize,
        tracer: &mut T,
    ) -> Result<(), SimError> {
        let penalty = self
            .rfu
            .init_traced(cfg, self.cycle, tracer)
            .map_err(|e| SimError::Rfu(e.to_string()))?;
        if penalty > 0 {
            tracer.stall(self.cycle, pc, StallCause::Reconfig, penalty);
        }
        self.cycle += penalty;
        Ok(())
    }

    /// `rfusend`: queues `srcs` as operands of configuration `cfg`.
    pub(crate) fn rfu_send<T: Tracer + ?Sized>(
        &mut self,
        cfg: u16,
        srcs: &[u32],
        tracer: &mut T,
    ) -> Result<(), SimError> {
        self.rfu
            .send_traced(cfg, srcs, self.cycle, tracer)
            .map_err(|e| SimError::Rfu(e.to_string()))
    }

    /// `rfuexec`: runs configuration `cfg` over `srcs`. Returns the result
    /// and the cycle it is ready, which also holds the RFU busy.
    pub(crate) fn rfu_exec<T: Tracer + ?Sized>(
        &mut self,
        cfg: u16,
        srcs: &[u32],
        lat: u64,
        pc: usize,
        tracer: &mut T,
    ) -> Result<(u32, u64), SimError> {
        let out = self
            .rfu
            .exec_traced(cfg, srcs, &mut self.mem, self.cycle, tracer)
            .map_err(|e| SimError::Rfu(e.to_string()))?;
        if out.stall > 0 {
            tracer.stall(self.cycle, pc, StallCause::RfuLoop, out.stall);
        }
        // Memory stalls freeze the whole machine, as usual.
        self.cycle += out.stall;
        let ready = self.cycle + out.busy.max(lat);
        self.rfu_busy_until = ready;
        Ok((out.value, ready))
    }

    /// `rfupref`: starts configuration `cfg`'s macroblock prefetch at
    /// `addr`.
    pub(crate) fn rfu_pref<T: Tracer + ?Sized>(
        &mut self,
        cfg: u16,
        addr: u32,
        tracer: &mut T,
    ) -> Result<(), SimError> {
        self.rfu
            .pref_traced(cfg, addr, &mut self.mem, self.cycle, tracer)
            .map_err(|e| SimError::Rfu(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvliw_asm::Builder;
    use rvliw_isa::Br;

    fn compile(b: Builder) -> Code {
        rvliw_asm::schedule_st200(&b.build()).unwrap()
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut b = Builder::new("t");
        b.movi(Gpr::new(1), 20);
        b.addi(Gpr::new(2), Gpr::new(1), 22);
        b.halt();
        let mut m = Machine::st200();
        let sum = m.run(&compile(b)).unwrap();
        assert_eq!(m.gpr(Gpr::new(2)), 42);
        assert!(sum.cycles >= 2);
    }

    #[test]
    fn r0_reads_zero_and_discards_writes() {
        let mut b = Builder::new("t");
        b.movi(Gpr::ZERO, 99);
        b.add(Gpr::new(1), Gpr::ZERO, 5);
        b.halt();
        let mut m = Machine::st200();
        m.run(&compile(b)).unwrap();
        assert_eq!(m.gpr(Gpr::ZERO), 0);
        assert_eq!(m.gpr(Gpr::new(1)), 5);
    }

    #[test]
    fn loop_sums_correctly() {
        // acc = 1 + 2 + ... + 10
        let mut b = Builder::new("t");
        let (i, acc) = (Gpr::new(1), Gpr::new(2));
        let c = Br::new(0);
        b.movi(i, 10);
        b.movi(acc, 0);
        let top = b.label();
        b.bind(top);
        b.add(acc, acc, i);
        b.subi(i, i, 1);
        b.cmpne_br(c, i, 0);
        b.br(c, top);
        b.halt();
        let mut m = Machine::st200();
        m.run(&compile(b)).unwrap();
        assert_eq!(m.gpr(acc), 55);
    }

    #[test]
    fn load_store_roundtrip_through_cache() {
        let mut m = Machine::st200();
        let buf = m.mem.ram.alloc(64, 32);
        let mut b = Builder::new("t");
        let (a, v, out) = (Gpr::new(1), Gpr::new(2), Gpr::new(3));
        b.movi(a, buf as i32);
        b.movi(v, 1234);
        b.stw(v, a, 8);
        b.ldw(out, a, 8);
        b.halt();
        m.run(&compile(b)).unwrap();
        assert_eq!(m.gpr(out), 1234);
        assert_eq!(m.mem.ram.load32(buf + 8), 1234);
    }

    #[test]
    fn interlock_counts_load_use_delay() {
        let mut m = Machine::st200();
        let buf = m.mem.ram.alloc(64, 32);
        // Warm the line first.
        let _ = m.mem.read(buf, 4, 0);
        let mut b = Builder::new("t");
        b.movi(Gpr::new(1), buf as i32);
        b.ldw(Gpr::new(2), Gpr::new(1), 0);
        b.addi(Gpr::new(3), Gpr::new(2), 1);
        b.halt();
        let sum = m.run(&compile(b)).unwrap();
        // The scheduler already separated the load and its use by the
        // latency, so no interlock stall should remain.
        assert_eq!(sum.stats.interlock_stalls, 0);
    }

    #[test]
    fn dcache_miss_stalls_whole_machine() {
        let mut m = Machine::st200();
        let buf = m.mem.ram.alloc(4096, 32);
        let mut b = Builder::new("t");
        b.movi(Gpr::new(1), buf as i32);
        b.ldw(Gpr::new(2), Gpr::new(1), 0);
        b.halt();
        let sum = m.run(&compile(b)).unwrap();
        assert!(sum.mem.d_misses >= 1);
        assert!(sum.mem.d_stall_cycles >= m.mem.config().fill_latency);
        assert!(sum.cycles > 5);
    }

    #[test]
    fn call_and_return() {
        let mut b = Builder::new("t");
        let f = b.label();
        let (x, y) = (Gpr::new(16), Gpr::new(17));
        b.movi(x, 7);
        b.call(f);
        // after return:
        b.addi(y, x, 1); // x was doubled by callee
        b.halt();
        b.bind(f);
        b.add(x, x, x);
        b.ret();
        let mut m = Machine::st200();
        m.run(&compile(b)).unwrap();
        assert_eq!(m.gpr(x), 14);
        assert_eq!(m.gpr(y), 15);
    }

    #[test]
    fn cycle_limit_catches_runaway() {
        let mut b = Builder::new("t");
        let top = b.label();
        b.bind(top);
        b.goto(top);
        b.halt();
        let mut m = Machine::st200();
        m.cycle_limit = 1000;
        let err = m.run(&compile(b)).unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { .. }));
    }

    #[test]
    fn state_persists_across_runs() {
        let mut m = Machine::st200();
        let buf = m.mem.ram.alloc(64, 32);
        let mut b1 = Builder::new("w");
        b1.movi(Gpr::new(1), buf as i32);
        b1.movi(Gpr::new(2), 7);
        b1.stw(Gpr::new(2), Gpr::new(1), 0);
        b1.halt();
        m.run(&compile(b1)).unwrap();
        let c1 = m.cycle();
        let mut b2 = Builder::new("r");
        b2.movi(Gpr::new(1), buf as i32);
        b2.ldw(Gpr::new(3), Gpr::new(1), 0);
        b2.halt();
        let sum2 = m.run(&compile(b2)).unwrap();
        assert_eq!(m.gpr(Gpr::new(3)), 7);
        assert!(m.cycle() > c1);
        // Line already resident from the store: no new data miss.
        assert_eq!(sum2.mem.d_misses, 0);
    }

    #[test]
    fn wide_issue_machines_execute_full_bundles() {
        // Regression: bundles wider than the default 4-issue must not drop
        // operations (the scratch arrays are sized by MAX_ISSUE, not by
        // the default configuration).
        let cfg = MachineConfig {
            issue_width: 8,
            num_alus: 8,
            num_muls: 4,
            num_mem_units: 2,
            ..MachineConfig::st200()
        };
        let mut b = Builder::new("wide");
        for i in 1..9u8 {
            b.movi(Gpr::new(i), i32::from(i) * 11);
        }
        b.halt();
        let code = rvliw_asm::schedule(&b.build(), &cfg).unwrap();
        // All eight moves must land in one bundle on this machine.
        assert_eq!(code.bundles()[0].ops().len(), 8);
        let mut m = Machine::new(cfg, rvliw_mem::MemConfig::st200());
        m.run(&code).unwrap();
        for i in 1..9u8 {
            assert_eq!(m.gpr(Gpr::new(i)), u32::from(i) * 11, "reg {i}");
        }
    }

    #[test]
    fn decoded_cache_is_content_addressed() {
        // Regression: the pre-decode cache used to key on `Code::id` — a
        // process-unique counter — so two separately scheduled but
        // identical programs each got their own lowering (and, had the key
        // ever been a content hash of insufficient width, could have
        // collided). Content-address keying dedups identical programs and
        // keeps distinct ones apart.
        let mk = || {
            let mut b = Builder::new("same");
            b.movi(Gpr::new(1), 20);
            b.addi(Gpr::new(2), Gpr::new(1), 22);
            b.halt();
            compile(b)
        };
        let (a, b) = (mk(), mk());
        assert_ne!(a.id(), b.id(), "separately scheduled: distinct ids");
        let mut m = Machine::st200();
        let da = m.decoded(&a);
        let db = m.decoded(&b);
        assert!(Arc::ptr_eq(&da, &db), "identical programs share a lowering");
        assert_eq!(m.decoded.len(), 1);
        let mut c = Builder::new("same");
        c.movi(Gpr::new(1), 21); // differs by one immediate
        c.halt();
        let dc = m.decoded(&compile(c));
        assert!(!Arc::ptr_eq(&da, &dc));
        assert_eq!(m.decoded.len(), 2);
    }

    #[test]
    fn fell_off_end_detected() {
        let mut b = Builder::new("t");
        b.movi(Gpr::new(1), 1);
        // no halt
        let code = compile(b);
        let mut m = Machine::st200();
        let err = m.run(&code).unwrap_err();
        assert!(matches!(err, SimError::FellOffEnd { .. }));
    }

    fn scalar_machine() -> Machine {
        Machine::new(
            MachineConfig::st200().with_substrate(Substrate::ScalarInOrder),
            MemConfig::st200(),
        )
    }

    #[test]
    fn scalar_substrate_matches_vliw_architecturally_but_not_in_cycles() {
        let build = || {
            let mut b = Builder::new("t");
            let (i, acc) = (Gpr::new(1), Gpr::new(2));
            let c = Br::new(0);
            b.movi(i, 10);
            b.movi(acc, 0);
            let top = b.label();
            b.bind(top);
            b.add(acc, acc, i);
            b.subi(i, i, 1);
            b.cmpne_br(c, i, 0);
            b.br(c, top);
            b.halt();
            compile(b)
        };
        let mut vliw = Machine::st200();
        let mut scalar = scalar_machine();
        let sv = vliw.run(&build()).unwrap();
        let ss = scalar.run(&build()).unwrap();
        assert_eq!(vliw.gpr(Gpr::new(2)), 55);
        assert_eq!(scalar.gpr(Gpr::new(2)), 55);
        assert_eq!(sv.stats.ops, ss.stats.ops);
        assert_eq!(sv.stats.bundles, ss.stats.bundles);
        assert!(
            ss.cycles > sv.cycles,
            "one-issue pipe must be slower: scalar {} vs vliw {}",
            ss.cycles,
            sv.cycles
        );
    }

    #[test]
    fn block_backend_on_scalar_falls_back_to_interpreter() {
        // An `Auto` backend on the scalar substrate must cleanly refuse —
        // run on the interpreter, never touch the block compiler — and
        // still produce the same results.
        let build = || {
            let mut b = Builder::new("t");
            b.movi(Gpr::new(1), 20);
            b.addi(Gpr::new(2), Gpr::new(1), 22);
            b.halt();
            compile(b)
        };
        let mut blocked = scalar_machine();
        blocked.backend = ExecBackend::Auto;
        let sb = blocked.run(&build()).unwrap();
        assert_eq!(blocked.gpr(Gpr::new(2)), 42);
        let bs = blocked.backend_stats();
        assert_eq!(bs.block_runs, 0, "block path must not engage: {bs:?}");
        assert_eq!(bs.compile_lookups, 0);
        assert_eq!(bs.interp_runs, 1);
        let mut interp = scalar_machine();
        interp.backend = ExecBackend::Interpreter;
        let si = interp.run(&build()).unwrap();
        assert_eq!(sb, si, "fallback must not change any counter");
    }

    #[test]
    fn ipc_reported() {
        let mut b = Builder::new("t");
        for i in 1..9 {
            b.movi(Gpr::new(i), i32::from(i));
        }
        b.halt();
        let code = compile(b);
        let mut m = Machine::st200();
        let cold = m.run(&code).unwrap();
        assert!(
            cold.stats.ifetch_stall_cycles > 0,
            "first pass fetches code"
        );
        let warm = m.run(&code).unwrap();
        assert_eq!(warm.stats.ifetch_stall_cycles, 0);
        assert!(warm.stats.ipc() > 1.0, "warm ipc {}", warm.stats.ipc());
    }
}
