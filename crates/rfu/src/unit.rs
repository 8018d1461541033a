//! The Reconfigurable Functional Unit itself: configuration store, input
//! registers, execution dispatch.

use std::fmt;

use rvliw_fault::{FaultInjector, LbRowFault};
use rvliw_mem::{MemError, MemorySystem};
use rvliw_trace::{FaultEvent, NullTracer, RfuEvent, Tracer};

use crate::config::{cfgs, MeLoopCfg, PrefetchPattern, RfuConfig, ShortOp};
use crate::line_buffer::{LineBufferA, LineBufferB};
use crate::meloop::{run_me_loop, InterpMode};
use crate::reconfig::ReconfigModel;
use crate::stats::RfuStats;
use crate::{MB_SIZE, PRED_ROWS, PRED_ROW_BYTES};

/// Result of dispatching an RFU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// The destination-register value.
    pub value: u32,
    /// Cycles the RFU is busy (the instruction's static latency).
    pub busy: u64,
    /// Machine-stall cycles inflicted (cache misses, line-buffer waits,
    /// reconfiguration penalties).
    pub stall: u64,
}

/// Errors raised by RFU dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RfuError {
    /// No configuration registered under this id.
    UnknownConfig(u16),
    /// The configuration cannot be used with this operation (e.g. `RFUPREF`
    /// on a compute configuration).
    WrongKind {
        /// The configuration id.
        cfg: u16,
        /// What the operation required.
        expected: &'static str,
    },
    /// Not enough operands were `RFUSEND`-loaded before `RFUEXEC`.
    MissingOperands {
        /// The configuration id.
        cfg: u16,
        /// Operands required.
        needed: usize,
        /// Operands present.
        got: usize,
    },
    /// A memory access on behalf of the RFU was rejected.
    Mem(MemError),
    /// A kernel loop waited on a line-buffer row whose `Done` flag can
    /// never arrive (deadlock watchdog; see
    /// [`LB_DEADLOCK_LIMIT`](crate::LB_DEADLOCK_LIMIT)).
    LineBufferDeadlock {
        /// The row index waited on.
        row: u32,
        /// Cycles the loop would have waited.
        waited: u64,
    },
}

impl fmt::Display for RfuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RfuError::UnknownConfig(c) => write!(f, "unknown RFU configuration #{c}"),
            RfuError::WrongKind { cfg, expected } => {
                write!(f, "RFU configuration #{cfg} is not a {expected}")
            }
            RfuError::MissingOperands { cfg, needed, got } => write!(
                f,
                "RFU configuration #{cfg} needs {needed} sent operands, got {got}"
            ),
            RfuError::Mem(e) => write!(f, "RFU memory access rejected: {e}"),
            RfuError::LineBufferDeadlock { row, waited } => write!(
                f,
                "deadlock: line-buffer row {row} will never complete (wait of {waited} cycles)"
            ),
        }
    }
}

impl std::error::Error for RfuError {}

impl From<MemError> for RfuError {
    fn from(e: MemError) -> Self {
        RfuError::Mem(e)
    }
}

/// Exact diagonal half-sample interpolation over 4 pixels (scenario A2).
///
/// `words` are two adjacent packed words of predictor row *y* followed by
/// two of row *y+1*; `align` (0–3) selects the 5-byte window. Returns the
/// four interpolated pixels packed little-endian.
#[must_use]
pub fn diag4(words: [u32; 4], align: u32) -> u32 {
    let row = |w0: u32, w1: u32| {
        let mut b = [0u8; 8];
        b[..4].copy_from_slice(&w0.to_le_bytes());
        b[4..].copy_from_slice(&w1.to_le_bytes());
        b
    };
    let y = row(words[0], words[1]);
    let y1 = row(words[2], words[3]);
    let a = align as usize;
    let mut out = [0u8; 4];
    for (i, o) in out.iter_mut().enumerate() {
        let s = u16::from(y[a + i])
            + u16::from(y[a + i + 1])
            + u16::from(y1[a + i])
            + u16::from(y1[a + i + 1]);
        *o = ((s + 2) >> 2) as u8;
    }
    u32::from_le_bytes(out)
}

/// Exact diagonal interpolation over a 16-pixel macroblock row (scenario
/// A3): `row_y`/`row_y1` are the 5-word packed footprints, `align` the byte
/// alignment. Returns the 16 interpolated pixels as four packed words.
#[must_use]
pub fn diag16(row_y: [u32; 5], row_y1: [u32; 5], align: u32) -> [u32; 4] {
    let unpack = |w: [u32; 5]| {
        let mut b = [0u8; 20];
        for (i, word) in w.iter().enumerate() {
            b[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        b
    };
    let y = unpack(row_y);
    let y1 = unpack(row_y1);
    let a = align as usize;
    let mut out = [0u32; 4];
    for (g, word) in out.iter_mut().enumerate() {
        let mut bytes = [0u8; 4];
        for (i, byte) in bytes.iter_mut().enumerate() {
            let p = a + g * 4 + i;
            let s = u16::from(y[p]) + u16::from(y[p + 1]) + u16::from(y1[p]) + u16::from(y1[p + 1]);
            *byte = ((s + 2) >> 2) as u8;
        }
        *word = u32::from_le_bytes(bytes);
    }
    out
}

/// The Reconfigurable Functional Unit.
///
/// Owns the configuration store, the input operand registers filled by
/// `RFUSEND`, both line buffers and the reconfiguration model. All timing
/// interaction with the memory hierarchy goes through the
/// [`MemorySystem`] handed to each dispatch, so RFU-induced stalls appear in
/// the same cache statistics the paper reports.
///
/// ```
/// use rvliw_rfu::{cfgs, MeLoopCfg, Rfu, RfuBandwidth};
/// use rvliw_mem::{MemConfig, MemorySystem};
///
/// let mut rfu = Rfu::with_case_study_configs(MeLoopCfg::new(RfuBandwidth::B1x32, 1, 176));
/// let mut mem = MemorySystem::new(MemConfig::st200_loop_level());
/// // A2's 4-pixel diagonal interpolation: send two word pairs, execute.
/// rfu.init(cfgs::DIAG4, 0)?;
/// rfu.send(cfgs::DIAG4, &[0x0202_0202, 0x0202_0202])?;
/// rfu.send(cfgs::DIAG4, &[0x0404_0404, 0x0404_0404])?;
/// let out = rfu.exec(cfgs::DIAG4, &[0], &mut mem, 0)?;
/// assert_eq!(out.value, 0x0303_0303); // (2+2+4+4+2)>>2 per pixel
/// # Ok::<(), rvliw_rfu::RfuError>(())
/// ```
#[derive(Debug)]
pub struct Rfu {
    /// The configuration store: a handful of `(id, config)` pairs.
    configs: Vec<(u16, RfuConfig)>,
    current: Option<u16>,
    inputs: Vec<u32>,
    out_words: [u32; 4],
    /// Line Buffer A: the gathered reference macroblock.
    pub lb_a: LineBufferA,
    /// Line Buffer B: candidate predictor lines (Table 7 scheme).
    pub lb_b: LineBufferB,
    reconfig: ReconfigModel,
    /// Activity counters.
    pub stats: RfuStats,
    fault: FaultInjector,
}

impl Default for Rfu {
    fn default() -> Self {
        Self::new()
    }
}

impl Rfu {
    /// An RFU with no configurations and the paper's zero-penalty
    /// reconfiguration assumption.
    #[must_use]
    pub fn new() -> Self {
        Rfu {
            configs: Vec::new(),
            current: None,
            inputs: Vec::new(),
            out_words: [0; 4],
            lb_a: LineBufferA::new(),
            lb_b: LineBufferB::new(),
            reconfig: ReconfigModel::zero_penalty(),
            stats: RfuStats::default(),
            fault: FaultInjector::inert(),
        }
    }

    /// Installs a fault injector; the default is the inert injector,
    /// under which gathers and loops behave exactly as without the
    /// fault layer.
    pub fn set_fault(&mut self, fault: FaultInjector) {
        self.fault = fault;
    }

    /// An RFU preloaded with the case study's standard configurations
    /// (`cfgs::*`) for a frame of row stride `stride`, with the ME loop in
    /// the given configuration.
    #[must_use]
    pub fn with_case_study_configs(me_loop: MeLoopCfg) -> Self {
        let stride = me_loop.stride;
        let mut rfu = Rfu::new();
        rfu.define(cfgs::DIAG4, RfuConfig::Short(ShortOp::Diag4));
        rfu.define(cfgs::DIAG16, RfuConfig::Short(ShortOp::Diag16));
        rfu.define(cfgs::DIAG16_R1, RfuConfig::Short(ShortOp::ReadOut(1)));
        rfu.define(cfgs::DIAG16_R2, RfuConfig::Short(ShortOp::ReadOut(2)));
        rfu.define(cfgs::DIAG16_R3, RfuConfig::Short(ShortOp::ReadOut(3)));
        rfu.define(cfgs::ME_LOOP, RfuConfig::MeLoop(me_loop));
        rfu.define(
            cfgs::DCT_LOOP,
            RfuConfig::DctLoop(crate::DctLoopCfg::new(me_loop.beta)),
        );
        rfu.define(
            cfgs::PREF_REF,
            RfuConfig::Prefetch(PrefetchPattern::ReferenceMb { stride }),
        );
        rfu.define(
            cfgs::PREF_CAND,
            RfuConfig::Prefetch(PrefetchPattern::CandidateMb { stride }),
        );
        rfu.define(
            cfgs::PREF_CAND_LBB,
            RfuConfig::Prefetch(PrefetchPattern::CandidateMbToLbB { stride }),
        );
        rfu
    }

    /// Registers (or replaces) configuration `id`.
    pub fn define(&mut self, id: u16, config: RfuConfig) {
        match self.configs.iter_mut().find(|(k, _)| *k == id) {
            Some((_, slot)) => *slot = config,
            None => self.configs.push((id, config)),
        }
    }

    /// Installs a reconfiguration-overhead model (ablations; the default is
    /// the paper's zero-penalty assumption).
    pub fn set_reconfig_model(&mut self, model: ReconfigModel) {
        self.reconfig = model;
    }

    fn lookup(&self, id: u16) -> Result<RfuConfig, RfuError> {
        self.configs
            .iter()
            .find(|(k, _)| *k == id)
            .map(|&(_, config)| config)
            .ok_or(RfuError::UnknownConfig(id))
    }

    /// `RFUINIT(#id)` at machine cycle `now`: makes `id` current. Returns
    /// the stall cycles paid to the reconfiguration model (0 under the
    /// paper's assumption).
    ///
    /// # Errors
    ///
    /// [`RfuError::UnknownConfig`] when `id` is not registered.
    pub fn init(&mut self, id: u16, now: u64) -> Result<u64, RfuError> {
        self.init_traced(id, now, &mut NullTracer)
    }

    /// [`Rfu::init`], emitting an [`RfuEvent::Init`] into `tracer`.
    ///
    /// # Errors
    ///
    /// [`RfuError::UnknownConfig`] when `id` is not registered.
    pub fn init_traced<T: Tracer + ?Sized>(
        &mut self,
        id: u16,
        now: u64,
        tracer: &mut T,
    ) -> Result<u64, RfuError> {
        let _ = self.lookup(id)?;
        self.stats.inits += 1;
        let penalty = self.reconfig.activate(id, now);
        if penalty > 0 {
            self.stats.reconfigs += 1;
            self.stats.reconfig_penalty_cycles += penalty;
        }
        self.current = Some(id);
        self.inputs.clear();
        tracer.rfu(now, RfuEvent::Init { cfg: id, penalty });
        Ok(penalty)
    }

    /// `RFUSEND(#id, …)`: appends explicit operands to the configuration's
    /// input registers.
    ///
    /// # Errors
    ///
    /// [`RfuError::UnknownConfig`] when `id` is not registered.
    pub fn send(&mut self, id: u16, values: &[u32]) -> Result<(), RfuError> {
        self.send_traced(id, values, 0, &mut NullTracer)
    }

    /// [`Rfu::send`], emitting an [`RfuEvent::Send`] at cycle `now` into
    /// `tracer`.
    ///
    /// # Errors
    ///
    /// [`RfuError::UnknownConfig`] when `id` is not registered.
    pub fn send_traced<T: Tracer + ?Sized>(
        &mut self,
        id: u16,
        values: &[u32],
        now: u64,
        tracer: &mut T,
    ) -> Result<(), RfuError> {
        let _ = self.lookup(id)?;
        if self.current != Some(id) {
            // Implicit re-activation, free under zero penalty.
            self.current = Some(id);
            self.inputs.clear();
        }
        self.stats.sends += 1;
        self.inputs.extend_from_slice(values);
        tracer.rfu(now, RfuEvent::Send { cfg: id });
        Ok(())
    }

    /// `RFUEXEC(#id, …)`: executes the configuration over the sent
    /// (implicit) and explicit operands.
    ///
    /// # Errors
    ///
    /// [`RfuError`] when the configuration is unknown, of the wrong kind, or
    /// under-supplied with operands.
    pub fn exec(
        &mut self,
        id: u16,
        srcs: &[u32],
        mem: &mut MemorySystem,
        now: u64,
    ) -> Result<ExecOutcome, RfuError> {
        self.exec_traced(id, srcs, mem, now, &mut NullTracer)
    }

    /// [`Rfu::exec`], emitting RFU pipeline and cache events into `tracer`.
    ///
    /// # Errors
    ///
    /// [`RfuError`] when the configuration is unknown, of the wrong kind, or
    /// under-supplied with operands.
    pub fn exec_traced<T: Tracer + ?Sized>(
        &mut self,
        id: u16,
        srcs: &[u32],
        mem: &mut MemorySystem,
        now: u64,
        tracer: &mut T,
    ) -> Result<ExecOutcome, RfuError> {
        let config = self.lookup(id)?;
        match config {
            RfuConfig::Short(op) => {
                self.stats.execs += 1;
                let value = self.exec_short(id, op, srcs)?;
                tracer.rfu(now, RfuEvent::ShortExec { cfg: id });
                Ok(ExecOutcome {
                    value,
                    busy: 1,
                    stall: 0,
                })
            }
            RfuConfig::MeLoop(cfg) => {
                let (&cand_addr, rest) = srcs.split_first().ok_or(RfuError::MissingOperands {
                    cfg: id,
                    needed: 3,
                    got: srcs.len(),
                })?;
                let (interp_bits, ref_addr) = match rest {
                    [i, r, ..] => (*i, *r),
                    _ => {
                        return Err(RfuError::MissingOperands {
                            cfg: id,
                            needed: 3,
                            got: srcs.len(),
                        })
                    }
                };
                let mode = InterpMode::from_bits(interp_bits);
                let run = run_me_loop(
                    &cfg,
                    cand_addr,
                    ref_addr,
                    mode,
                    &self.lb_a,
                    &mut self.lb_b,
                    mem,
                    now,
                    &mut self.stats,
                    tracer,
                )?;
                tracer.rfu(
                    now,
                    RfuEvent::LoopDone {
                        cfg: id,
                        busy: run.busy,
                        stall: run.stall,
                    },
                );
                Ok(ExecOutcome {
                    value: run.sad,
                    busy: run.busy,
                    stall: run.stall,
                })
            }
            RfuConfig::DctLoop(cfg) => {
                let (&src, rest) = srcs.split_first().ok_or(RfuError::MissingOperands {
                    cfg: id,
                    needed: 2,
                    got: srcs.len(),
                })?;
                let &dst = rest.first().ok_or(RfuError::MissingOperands {
                    cfg: id,
                    needed: 2,
                    got: srcs.len(),
                })?;
                let out = self.exec_dct_loop(&cfg, src, dst, mem, now, tracer)?;
                tracer.rfu(
                    now,
                    RfuEvent::LoopDone {
                        cfg: id,
                        busy: out.busy,
                        stall: out.stall,
                    },
                );
                Ok(out)
            }
            RfuConfig::Prefetch(_) => Err(RfuError::WrongKind {
                cfg: id,
                expected: "compute configuration",
            }),
        }
    }

    /// The long-latency DCT instruction: timed row reads, bit-true
    /// fixed-point transform, timed write-back. Blocks are 64 × i16 with a
    /// 16-byte row stride.
    fn exec_dct_loop<T: Tracer + ?Sized>(
        &mut self,
        cfg: &crate::DctLoopCfg,
        src: u32,
        dst: u32,
        mem: &mut MemorySystem,
        now: u64,
        tracer: &mut T,
    ) -> Result<ExecOutcome, RfuError> {
        // The block is 8 rows at a 16-byte stride; validate the whole
        // footprint up front so the direct `ram` loads below cannot panic
        // on CLI-supplied addresses.
        for base in [src, dst] {
            if u64::from(base) + 8 * 16 > u64::from(mem.ram.size()) {
                return Err(RfuError::Mem(MemError::OutOfRange {
                    addr: base,
                    size: 8 * 16,
                }));
            }
        }
        let mut stall = 0u64;
        let mut block = [0i32; 64];
        for r in 0..8u32 {
            let eff = now + cfg.prologue + u64::from(r) + stall;
            let acc = mem.read_traced(src + r * 16, 4, eff, tracer)?;
            stall += acc.stall;
            for x in 0..8u32 {
                block[(r * 8 + x) as usize] = mem.ram.load16(src + r * 16 + x * 2) as i16 as i32;
            }
        }
        let out = crate::dct::fdct_fixed_rfu(&block);
        let write_base = cfg.prologue + 8 + cfg.beta * cfg.compute_depth;
        for r in 0..8u32 {
            let eff = now + write_base + u64::from(r) + stall;
            for w in 0..4u32 {
                let lo = out[(r * 8 + w * 2) as usize] as u16;
                let hi = out[(r * 8 + w * 2 + 1) as usize] as u16;
                let word = u32::from(lo) | (u32::from(hi) << 16);
                let acc = mem.write_traced(dst + r * 16 + w * 4, 4, word, eff, tracer)?;
                stall += acc.stall;
            }
        }
        let busy = cfg.static_latency();
        self.stats.dct_loops += 1;
        self.stats.loop_busy_cycles += busy;
        self.stats.loop_stall_cycles += stall;
        Ok(ExecOutcome {
            value: dst,
            busy,
            stall,
        })
    }

    fn exec_short(&mut self, id: u16, op: ShortOp, srcs: &[u32]) -> Result<u32, RfuError> {
        match op {
            ShortOp::Diag4 => {
                if self.inputs.len() < 4 {
                    return Err(RfuError::MissingOperands {
                        cfg: id,
                        needed: 4,
                        got: self.inputs.len(),
                    });
                }
                let w = &self.inputs[self.inputs.len() - 4..];
                let align = srcs.first().copied().unwrap_or(0);
                let value = diag4([w[0], w[1], w[2], w[3]], align & 3);
                self.inputs.clear();
                Ok(value)
            }
            ShortOp::Diag16 => {
                if self.inputs.len() < 10 {
                    return Err(RfuError::MissingOperands {
                        cfg: id,
                        needed: 10,
                        got: self.inputs.len(),
                    });
                }
                let w = &self.inputs[self.inputs.len() - 10..];
                let align = srcs.first().copied().unwrap_or(0);
                let mut y = [0u32; 5];
                let mut y1 = [0u32; 5];
                y.copy_from_slice(&w[..5]);
                y1.copy_from_slice(&w[5..10]);
                self.out_words = diag16(y, y1, align & 3);
                self.inputs.clear();
                Ok(self.out_words[0])
            }
            ShortOp::ReadOut(k) => Ok(self.out_words[usize::from(k.min(3))]),
        }
    }

    /// `RFUPREF(#id, addr)`: launches a macroblock-pattern prefetch. The
    /// instruction is non-blocking ("continues as a separate thread"); it
    /// returns immediately.
    ///
    /// # Errors
    ///
    /// [`RfuError`] when `id` is unknown or not a prefetch configuration.
    pub fn pref(
        &mut self,
        id: u16,
        addr: u32,
        mem: &mut MemorySystem,
        now: u64,
    ) -> Result<(), RfuError> {
        self.pref_traced(id, addr, mem, now, &mut NullTracer)
    }

    /// [`Rfu::pref`], emitting prefetch and line-buffer events into `tracer`.
    ///
    /// # Errors
    ///
    /// [`RfuError`] when `id` is unknown or not a prefetch configuration.
    pub fn pref_traced<T: Tracer + ?Sized>(
        &mut self,
        id: u16,
        addr: u32,
        mem: &mut MemorySystem,
        now: u64,
        tracer: &mut T,
    ) -> Result<(), RfuError> {
        let config = self.lookup(id)?;
        let RfuConfig::Prefetch(pattern) = config else {
            return Err(RfuError::WrongKind {
                cfg: id,
                expected: "prefetch configuration",
            });
        };
        self.stats.mb_prefetches += 1;
        tracer.rfu(now, RfuEvent::MbPrefetch { cfg: id, addr });
        match pattern {
            PrefetchPattern::ReferenceMb { stride } => {
                self.lb_a.begin_gather(addr);
                for r in 0..MB_SIZE as u32 {
                    let row_addr = addr.checked_add(r * stride).ok_or(RfuError::Mem(
                        MemError::OutOfRange {
                            addr,
                            size: MB_SIZE as u32,
                        },
                    ))?;
                    if u64::from(row_addr) + MB_SIZE as u64 > u64::from(mem.ram.size()) {
                        return Err(RfuError::Mem(MemError::OutOfRange {
                            addr: row_addr,
                            size: MB_SIZE as u32,
                        }));
                    }
                    let mut ready = Self::line_ready(mem, row_addr, now, tracer);
                    self.stats.mb_prefetch_lines += 1;
                    // Gather: the row's pixels land in Line Buffer A when
                    // the access completes.
                    let mut data = [0u8; MB_SIZE];
                    data.copy_from_slice(&mem.ram.read_bytes(row_addr, MB_SIZE as u32));
                    if !self.fault.is_inert() {
                        match self.fault.lb_row_fault() {
                            LbRowFault::None => {}
                            LbRowFault::Delay(extra) => {
                                if ready != u64::MAX {
                                    ready = ready.saturating_add(extra).min(crate::LB_STUCK_READY);
                                    tracer.fault(now, FaultEvent::LbRowDelay { row: r, extra });
                                }
                            }
                            LbRowFault::Stuck => {
                                ready = crate::LB_STUCK_READY;
                                tracer.fault(now, FaultEvent::LbRowStuck { row: r });
                            }
                        }
                        if let Some((byte, mask)) = self.fault.bit_flip(&mut data) {
                            tracer.fault(
                                now,
                                FaultEvent::BitFlip {
                                    row: r,
                                    byte: byte as u32,
                                    mask,
                                },
                            );
                        }
                    }
                    self.lb_a.fill_row(r as usize, data, ready);
                    tracer.rfu(
                        now,
                        RfuEvent::LbaRowDone {
                            row: r,
                            ready_at: ready,
                        },
                    );
                }
            }
            PrefetchPattern::CandidateMb { stride } => {
                let (lines, n) = Self::candidate_lines(mem, addr, stride);
                for &line in &lines[..n] {
                    self.stats.mb_prefetch_lines += 1;
                    let _ = mem.prefetch_traced(line, now, tracer);
                }
            }
            PrefetchPattern::CandidateMbToLbB { stride } => {
                self.lb_b.swap_banks();
                let (lines, n) = Self::candidate_lines(mem, addr, stride);
                for (i, &line) in lines[..n].iter().enumerate() {
                    self.stats.mb_prefetch_lines += 1;
                    if self.lb_b.inherit(line) {
                        // Fully associative dedup: inherit the pending or
                        // completed status; no new cache request.
                        continue;
                    }
                    let mut ready = Self::line_ready(mem, line, now, tracer);
                    if !self.fault.is_inert() && ready != u64::MAX {
                        match self.fault.lb_row_fault() {
                            LbRowFault::None => {}
                            LbRowFault::Delay(extra) => {
                                ready = ready.saturating_add(extra).min(crate::LB_STUCK_READY);
                                tracer.fault(
                                    now,
                                    FaultEvent::LbRowDelay {
                                        row: i as u32,
                                        extra,
                                    },
                                );
                            }
                            LbRowFault::Stuck => {
                                ready = crate::LB_STUCK_READY;
                                tracer.fault(now, FaultEvent::LbRowStuck { row: i as u32 });
                            }
                        }
                    }
                    if ready != u64::MAX {
                        self.lb_b.insert(line, ready);
                    }
                }
            }
        }
        Ok(())
    }

    /// Issues a prefetch for the line containing `addr`, returning the cycle
    /// it will be ready: `now` when already cached, the in-flight arrival
    /// for pending lines, `u64::MAX` when dropped.
    fn line_ready<T: Tracer + ?Sized>(
        mem: &mut MemorySystem,
        addr: u32,
        now: u64,
        tracer: &mut T,
    ) -> u64 {
        if let Some(ready) = mem.prefetch_traced(addr, now, tracer) {
            return ready;
        }
        let line = mem.dcache.line_of(addr);
        if mem.dcache.probe(line) {
            now
        } else {
            // In flight from an earlier request, or dropped (buffer full).
            mem.pfq.pending_ready_at(line).unwrap_or(u64::MAX)
        }
    }

    /// The distinct cache lines of a candidate predictor macroblock: one
    /// per row, plus the crossing line when the row footprint straddles a
    /// line boundary. Returns the lines in row order and their count.
    fn candidate_lines(
        mem: &MemorySystem,
        addr: u32,
        stride: u32,
    ) -> ([u32; 2 * PRED_ROWS], usize) {
        let mut lines = [0; 2 * PRED_ROWS];
        let mut n = 0;
        for r in 0..PRED_ROWS as u32 {
            let row = addr + r * stride;
            let first = mem.dcache.line_of(row);
            let last = mem.dcache.line_of(row + PRED_ROW_BYTES - 1);
            lines[n] = first;
            n += 1;
            if last != first {
                lines[n] = last;
                n += 1;
            }
        }
        (lines, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RfuBandwidth;
    use rvliw_mem::MemConfig;

    fn mem() -> MemorySystem {
        MemorySystem::new(MemConfig::st200_loop_level())
    }

    fn rfu(stride: u32) -> Rfu {
        Rfu::with_case_study_configs(MeLoopCfg::new(RfuBandwidth::B1x32, 1, stride))
    }

    #[test]
    fn diag4_matches_scalar_reference() {
        // Row y: bytes 10,20,30,40,50,60,70,80; row y+1: all 100.
        let wy0 = u32::from_le_bytes([10, 20, 30, 40]);
        let wy1 = u32::from_le_bytes([50, 60, 70, 80]);
        let w10 = u32::from_le_bytes([100, 100, 100, 100]);
        let w11 = u32::from_le_bytes([100, 100, 100, 100]);
        let out = diag4([wy0, wy1, w10, w11], 1).to_le_bytes();
        // pixel 0 at align 1: (20+30+100+100+2)>>2 = 63
        assert_eq!(out[0], 63);
        // pixel 3: (50+60+100+100+2)>>2 = 78
        assert_eq!(out[3], 78);
    }

    #[test]
    fn diag16_consistent_with_diag4() {
        let y: [u32; 5] = [
            0x0403_0201,
            0x0807_0605,
            0x0c0b_0a09,
            0x100f_0e0d,
            0x1413_1211,
        ];
        let y1: [u32; 5] = [
            0x1817_1615,
            0x1c1b_1a19,
            0x201f_1e1d,
            0x2423_2221,
            0x2827_2625,
        ];
        for align in 0..4u32 {
            let full = diag16(y, y1, align);
            let first = diag4([y[0], y[1], y1[0], y1[1]], align);
            assert_eq!(full[0], first, "align {align}");
        }
    }

    #[test]
    fn exec_requires_sent_operands() {
        let mut r = rfu(176);
        let mut m = mem();
        let err = r.exec(cfgs::DIAG4, &[0], &mut m, 0).unwrap_err();
        assert!(matches!(err, RfuError::MissingOperands { .. }));
    }

    #[test]
    fn send_then_exec_diag4() {
        let mut r = rfu(176);
        let mut m = mem();
        r.init(cfgs::DIAG4, 0).unwrap();
        r.send(cfgs::DIAG4, &[0x0202_0202, 0x0202_0202]).unwrap();
        r.send(cfgs::DIAG4, &[0x0404_0404, 0x0404_0404]).unwrap();
        let out = r.exec(cfgs::DIAG4, &[0], &mut m, 0).unwrap();
        // (2+2+4+4+2)>>2 = 3 per byte
        assert_eq!(out.value, 0x0303_0303);
        assert_eq!(out.busy, 1);
    }

    #[test]
    fn diag16_readout_words() {
        let mut r = rfu(176);
        let mut m = mem();
        r.init(cfgs::DIAG16, 0).unwrap();
        for _ in 0..5 {
            r.send(cfgs::DIAG16, &[0x0808_0808, 0x0808_0808]).unwrap();
        }
        // 10 words sent: rows y and y1 all 8 ⇒ every output byte is
        // (8*4+2)>>2 = 8.
        let w0 = r.exec(cfgs::DIAG16, &[0], &mut m, 0).unwrap().value;
        assert_eq!(w0, 0x0808_0808);
        for id in [cfgs::DIAG16_R1, cfgs::DIAG16_R2, cfgs::DIAG16_R3] {
            assert_eq!(r.exec(id, &[], &mut m, 0).unwrap().value, 0x0808_0808);
        }
    }

    #[test]
    fn unknown_config_is_an_error() {
        let mut r = Rfu::new();
        assert_eq!(r.init(42, 0).unwrap_err(), RfuError::UnknownConfig(42));
    }

    #[test]
    fn prefetch_reference_gathers_lb_a() {
        let stride = 176u32;
        let mut m = mem();
        let frame = m.ram.alloc(stride * 160, 32);
        for i in 0..stride * 32 {
            m.ram.store8(frame + i, (i % 256) as u8);
        }
        let mut r = rfu(stride);
        r.pref(cfgs::PREF_REF, frame, &mut m, 0).unwrap();
        assert_eq!(r.lb_a.base(), Some(frame));
        // All 16 rows scheduled; none done at cycle 0 (cold), all done
        // eventually.
        let latest = (0..16).map(|i| r.lb_a.row_ready_at(i)).max().unwrap();
        assert!(latest > 0 && latest != u64::MAX);
        assert!(r.lb_a.row_done(0, latest));
        // Row data gathered functionally.
        assert_eq!(r.lb_a.row(0)[3], m.ram.load8(frame + 3));
    }

    #[test]
    fn candidate_prefetch_covers_crossing_lines() {
        let stride = 176u32;
        let mut m = mem();
        let frame = m.ram.alloc(stride * 160, 32);
        // Address 30 bytes into a line: every 20-byte row footprint crosses.
        let addr = frame + 30;
        let mut r = rfu(stride);
        r.pref(cfgs::PREF_CAND, addr, &mut m, 0).unwrap();
        assert_eq!(r.stats.mb_prefetch_lines as usize, 2 * PRED_ROWS);
    }

    #[test]
    fn me_loop_returns_golden_sad() {
        let stride = 176u32;
        let mut m = mem();
        let frame = m.ram.alloc(stride * 160, 32);
        for i in 0..stride * 40 {
            m.ram.store8(frame + i, (i * 13 % 251) as u8);
        }
        let ref_addr = frame + 2 * stride + 16;
        let cand_addr = frame + 5 * stride + 33;
        let mut r = rfu(stride);
        r.pref(cfgs::PREF_REF, ref_addr, &mut m, 0).unwrap();
        let out = r
            .exec(
                cfgs::ME_LOOP,
                &[cand_addr, InterpMode::Diag.to_bits(), ref_addr],
                &mut m,
                100,
            )
            .unwrap();
        let golden =
            crate::meloop::golden_sad(&m.ram, ref_addr, cand_addr, stride, InterpMode::Diag);
        assert_eq!(out.value, golden);
        assert_eq!(out.busy, 16 + 17 * 5 + 3 + 4);
        assert_eq!(r.stats.loops, 1);
    }

    #[test]
    fn me_loop_with_lbb_stalls_less_when_prefetched_early() {
        let stride = 176u32;
        let mk = || {
            let mut m = mem();
            let frame = m.ram.alloc(stride * 160, 32);
            for i in 0..stride * 40 {
                m.ram.store8(frame + i, (i * 7 % 251) as u8);
            }
            (m, frame)
        };
        let cfg = MeLoopCfg::new(RfuBandwidth::B1x32, 1, stride).with_line_buffer_b();

        // Early prefetch: run the loop long after the prefetch completed.
        let (mut m1, f1) = mk();
        let mut r1 = Rfu::with_case_study_configs(cfg);
        r1.pref(cfgs::PREF_REF, f1, &mut m1, 0).unwrap();
        r1.pref(cfgs::PREF_CAND_LBB, f1 + 3 * stride + 7, &mut m1, 0)
            .unwrap();
        let early = r1
            .exec(
                cfgs::ME_LOOP,
                &[f1 + 3 * stride + 7, 0, f1],
                &mut m1,
                10_000,
            )
            .unwrap();

        // No prefetch at all: every row misses.
        let (mut m2, f2) = mk();
        let mut r2 = Rfu::with_case_study_configs(cfg);
        r2.pref(cfgs::PREF_REF, f2, &mut m2, 0).unwrap();
        let cold = r2
            .exec(
                cfgs::ME_LOOP,
                &[f2 + 3 * stride + 7, 0, f2],
                &mut m2,
                10_000,
            )
            .unwrap();

        assert_eq!(early.value, cold.value);
        assert!(early.stall < cold.stall);
        assert_eq!(early.stall, 0);
    }
}
