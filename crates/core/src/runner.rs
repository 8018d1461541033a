//! Replays a workload's `GetSad` trace against a scenario's simulated
//! kernel and measures the motion-estimation stage.

use std::fmt;

use mpeg4_enc::sad::InterpKind;
use mpeg4_enc::types::Plane;
use mpeg4_enc::QualityMetrics;
use rvliw_asm::Code;
use rvliw_kernels::regs::{
    ARG_BASE, ARG_BEST, ARG_CAND, ARG_CX, ARG_CY, ARG_INTERP, ARG_NCX, ARG_NCY, ARG_REF,
    ARG_STRIDE, NO_CANDIDATE, RESULT,
};
use rvliw_kernels::{build_getsad_approx, build_mb_prep, build_me_loop_call, DriverKind};
use rvliw_mem::MemStats;
use rvliw_rfu::RfuStats;
use rvliw_sim::{Machine, SimError, SimStats};
use rvliw_trace::{NullTracer, Tracer};

use crate::scenario::{sad_approx_to_rfu, Kind, Scenario};
use crate::workload::Workload;

/// Why one scenario of the case study failed. Failures are isolated: one
/// failing scenario never affects the measurements of the others.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The simulator reported a typed error (memory violation, undecodable
    /// operation, cycle-budget overrun, line-buffer deadlock, …).
    Sim {
        /// Scenario label.
        label: String,
        /// The underlying simulator error.
        source: SimError,
    },
    /// A simulated SAD disagreed with the host golden trace — a functional
    /// kernel divergence (e.g. an injected bit flip).
    SadMismatch {
        /// Scenario label.
        label: String,
        /// Frame index of the diverging call.
        frame: usize,
        /// Macroblock x coordinate.
        mbx: usize,
        /// Macroblock y coordinate.
        mby: usize,
        /// Host golden SAD.
        expected: u32,
        /// Simulated SAD.
        got: u32,
    },
    /// The scenario panicked; the panic was caught at the scenario
    /// boundary so the remaining scenarios still ran.
    Panic {
        /// Scenario label.
        label: String,
        /// The panic payload, when it was a string.
        message: String,
        /// Where the panic originated (`file:line:column`), captured by
        /// the panic hook when available — the health report's
        /// backtrace-adjacent context.
        location: Option<String>,
    },
    /// The scenario's simulation exceeded the supervisor's wall-clock
    /// deadline and was abandoned so the worker pool could keep draining.
    TimedOut {
        /// Scenario label.
        label: String,
        /// The deadline that was exceeded, in seconds.
        secs: u64,
    },
}

impl ScenarioError {
    /// The label of the scenario that failed.
    #[must_use]
    pub fn label(&self) -> &str {
        match self {
            ScenarioError::Sim { label, .. }
            | ScenarioError::SadMismatch { label, .. }
            | ScenarioError::Panic { label, .. }
            | ScenarioError::TimedOut { label, .. } => label,
        }
    }

    /// Whether a supervised rerun could plausibly succeed, so a bounded
    /// retry is worth spending.
    ///
    /// Simulator errors delegate to [`SimError::is_transient`]
    /// (fault-injected latency, flushes and line-buffer trouble surface
    /// there); a wall-clock timeout is transient by construction (the
    /// host was slow, or an injected delay compounded). A SAD divergence
    /// is a functional verdict about this exact (plan, scenario) pair
    /// and a panic is a bug — both permanent.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            ScenarioError::Sim { source, .. } => source.is_transient(),
            ScenarioError::TimedOut { .. } => true,
            ScenarioError::SadMismatch { .. } | ScenarioError::Panic { .. } => false,
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Sim { label, source } => {
                write!(f, "scenario `{label}`: simulation failed: {source}")
            }
            ScenarioError::SadMismatch {
                label,
                frame,
                mbx,
                mby,
                expected,
                got,
            } => write!(
                f,
                "scenario `{label}`: SAD diverged at frame {frame} MB ({mbx},{mby}): \
                 expected {expected}, got {got}"
            ),
            ScenarioError::Panic {
                label,
                message,
                location,
            } => match location {
                Some(at) => write!(f, "scenario `{label}`: panicked at {at}: {message}"),
                None => write!(f, "scenario `{label}`: panicked: {message}"),
            },
            ScenarioError::TimedOut { label, secs } => {
                write!(
                    f,
                    "scenario `{label}`: exceeded the {secs}s wall-clock deadline"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Measured motion-estimation stage of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct MeResult {
    /// Scenario label.
    pub label: String,
    /// Total ME cycles (every `GetSad` call plus, for loop-level
    /// scenarios, the per-macroblock prefetch preparation).
    pub me_cycles: u64,
    /// Data-cache stall cycles within the ME stage.
    pub stall_cycles: u64,
    /// Number of `GetSad` calls replayed.
    pub calls: u64,
    /// Memory counters over the stage.
    pub mem: MemStats,
    /// Core counters over the stage.
    pub core: SimStats,
    /// RFU counters over the stage.
    pub rfu: RfuStats,
    /// Speed-vs-quality metrics of the replayed motion field against the
    /// golden full-search encode. `None` for exact full-quality scenarios
    /// (no derived workload, nothing to compare).
    pub quality: Option<QualityMetrics>,
}

impl MeResult {
    /// Speedup of this scenario relative to a baseline (the paper's `S.Up`,
    /// "always relative to the optimized C-code version").
    #[must_use]
    pub fn speedup_vs(&self, baseline: &MeResult) -> f64 {
        baseline.me_cycles as f64 / self.me_cycles as f64
    }

    /// `%Improvement` relative to a baseline: `(orig − new) / orig`.
    #[must_use]
    pub fn improvement_vs(&self, baseline: &MeResult) -> f64 {
        1.0 - self.me_cycles as f64 / baseline.me_cycles as f64
    }

    /// Stall-cycle reduction relative to a baseline (`%Red` of Table 4).
    #[must_use]
    pub fn stall_reduction_vs(&self, baseline: &MeResult) -> f64 {
        1.0 - self.stall_cycles as f64 / baseline.stall_cycles as f64
    }

    /// Stalls as a share of the ME execution time (Table 5).
    #[must_use]
    pub fn stall_share(&self) -> f64 {
        self.stall_cycles as f64 / self.me_cycles as f64
    }
}

/// Argument registers for one simulated kernel invocation.
///
/// Every driver needs the reference-block address and the stride; the
/// kernel kind decides the rest (candidate address for the instruction
/// level, line-buffer base / coordinates / streaming lookahead for the
/// loop level). `apply` writes exactly the registers that were set, in one
/// place, instead of each call site carrying its own `set_gpr` block.
#[derive(Debug, Clone, Copy, Default)]
struct SadCallArgs {
    ref_addr: u32,
    stride: u32,
    cand: Option<u32>,
    base: Option<u32>,
    interp: Option<u32>,
    coords: Option<(u32, u32)>,
    next: Option<(u32, u32)>,
    best: Option<u32>,
}

impl SadCallArgs {
    fn new(ref_addr: u32, stride: u32) -> Self {
        SadCallArgs {
            ref_addr,
            stride,
            ..SadCallArgs::default()
        }
    }

    /// Candidate-block address (instruction-level kernels).
    fn cand(mut self, addr: u32) -> Self {
        self.cand = Some(addr);
        self
    }

    /// Previous-frame base address (loop-level drivers).
    fn base(mut self, addr: u32) -> Self {
        self.base = Some(addr);
        self
    }

    /// Half-sample interpolation mode.
    fn interp(mut self, kind: InterpKind) -> Self {
        self.interp = Some(kind.code());
        self
    }

    /// Candidate coordinates (loop-level drivers).
    fn coords(mut self, cx: u32, cy: u32) -> Self {
        self.coords = Some((cx, cy));
        self
    }

    /// Next-candidate coordinates for the streaming prefetch.
    fn next(mut self, ncx: u32, ncy: u32) -> Self {
        self.next = Some((ncx, ncy));
        self
    }

    /// Best SAD so far (early-termination threshold).
    fn best(mut self, best: u32) -> Self {
        self.best = Some(best);
        self
    }

    /// Writes the collected arguments into the machine's registers.
    fn apply(&self, m: &mut Machine) {
        m.set_gpr(ARG_REF, self.ref_addr);
        m.set_gpr(ARG_STRIDE, self.stride);
        if let Some(addr) = self.cand {
            m.set_gpr(ARG_CAND, addr);
        }
        if let Some(addr) = self.base {
            m.set_gpr(ARG_BASE, addr);
        }
        if let Some(bits) = self.interp {
            m.set_gpr(ARG_INTERP, bits);
        }
        if let Some((cx, cy)) = self.coords {
            m.set_gpr(ARG_CX, cx);
            m.set_gpr(ARG_CY, cy);
        }
        if let Some((ncx, ncy)) = self.next {
            m.set_gpr(ARG_NCX, ncx);
            m.set_gpr(ARG_NCY, ncy);
        }
        if let Some(best) = self.best {
            m.set_gpr(ARG_BEST, best);
        }
    }
}

/// Writes a plane's samples into simulator RAM at `base` (host-side, no
/// timing — stands in for the non-simulated encoder stages that produced
/// the data).
fn store_plane(m: &mut Machine, base: u32, p: &Plane) {
    for y in 0..p.height() {
        m.mem
            .ram
            .write_bytes(base + (y * p.width()) as u32, p.row(y));
    }
}

/// The scheduled programs one scenario kind replays. The enum (rather than
/// a tuple of `Option`s) makes "the program exists for this kind" a
/// structural fact instead of a runtime expectation.
enum Programs {
    Instr(Code),
    Loop { prep: Code, call: Code },
}

/// Replays the whole `GetSad` trace of `workload` under `scenario`.
///
/// Every simulated SAD is checked against the host golden value recorded in
/// the trace — a full-workload functional regression of the kernels.
///
/// # Errors
///
/// [`ScenarioError::Sim`] when the simulator reports a typed failure
/// (memory violation, cycle-budget overrun, line-buffer deadlock, …) and
/// [`ScenarioError::SadMismatch`] when a simulated SAD disagrees with the
/// golden trace. Either indicates a kernel/simulator bug or an injected
/// fault; the error never poisons other scenarios.
pub fn run_me(scenario: &Scenario, workload: &Workload) -> Result<MeResult, ScenarioError> {
    run_me_with_tracer(scenario, workload, &mut NullTracer)
}

/// [`run_me`], emitting structured trace events (bundle issues, stall
/// causes, cache and RFU activity) into `tracer` for the entire replay.
///
/// With a [`NullTracer`] this monomorphizes to exactly [`run_me`]; with a
/// [`CountingTracer`](rvliw_trace::CountingTracer) or
/// [`ChromeTracer`](rvliw_trace::ChromeTracer) it powers the `--metrics-out`
/// and `--trace` exports of the CLI tools.
///
/// # Errors
///
/// As for [`run_me`].
pub fn run_me_with_tracer<T: Tracer + ?Sized>(
    scenario: &Scenario,
    workload: &Workload,
    tracer: &mut T,
) -> Result<MeResult, ScenarioError> {
    let sim_err = |source: SimError| ScenarioError::Sim {
        label: scenario.label.clone(),
        source,
    };
    // Approximate or search-overridden scenarios replay a *derived*
    // workload: the same source frames re-encoded with the scenario's
    // approximation so the host trace and the simulated kernel agree
    // bit-exactly. The derivation also attaches the quality metrics.
    let derived;
    let workload = if scenario.needs_derived_workload() {
        derived = workload.derived(scenario.approx, scenario.search);
        &*derived
    } else {
        workload
    };
    let stride = workload.stride;
    // The scenario's SimSession assembles the machine — core + memory
    // configuration, RFU, reconfiguration model, line-buffer geometry,
    // fault injectors and cycle budget — in the one correct order.
    let mut m = scenario.session(stride).build();
    let height = workload.frames[0].height();
    // Fixed frame buffers, reused every frame as in the reference encoder.
    let cur_buf = m.mem.ram.alloc(stride * height as u32, 32);
    let prev_buf = m.mem.ram.alloc(stride * height as u32, 32);

    // Build the programs the replay drives.
    let programs = match &scenario.kind {
        Kind::Instruction(variant) => Programs::Instr(build_getsad_approx(
            *variant,
            sad_approx_to_rfu(scenario.approx),
            &scenario.machine,
        )),
        Kind::Loop {
            two_line_buffers, ..
        } => {
            let kind = if *two_line_buffers {
                DriverKind::DoubleLineBuffer
            } else {
                DriverKind::SingleLineBuffer
            };
            Programs::Loop {
                prep: build_mb_prep(kind, &scenario.machine),
                call: build_me_loop_call(kind, &scenario.machine),
            }
        }
    };

    let start = m.snapshot();
    let mut calls = 0u64;

    for (t, frame) in workload.frames.iter().enumerate().skip(1) {
        let prev_recon = &workload.report.recon[t - 1];
        store_plane(&mut m, cur_buf, &frame.y);
        store_plane(&mut m, prev_buf, &prev_recon.y);
        let traces = &workload.report.frames[t].motion;
        for trace in traces {
            let ref_addr = cur_buf + (trace.mby * 16) as u32 * stride + (trace.mbx * 16) as u32;
            let addr_of = |c: &mpeg4_enc::SadCall| prev_buf + c.cy as u32 * stride + c.cx as u32;
            let coords_of = |c: &mpeg4_enc::SadCall| (c.cx as u32, c.cy as u32);
            let check_sad = |m: &Machine, expected: u32| {
                let got = m.gpr(RESULT);
                if got == expected {
                    Ok(())
                } else {
                    Err(ScenarioError::SadMismatch {
                        label: scenario.label.clone(),
                        frame: t,
                        mbx: trace.mbx,
                        mby: trace.mby,
                        expected,
                        got,
                    })
                }
            };
            match &programs {
                Programs::Instr(code) => {
                    for c in &trace.calls {
                        SadCallArgs::new(ref_addr, stride)
                            .cand(addr_of(c))
                            .interp(c.kind)
                            .apply(&mut m);
                        m.run_with_tracer(code, tracer).map_err(sim_err)?;
                        check_sad(&m, c.sad)?;
                        calls += 1;
                    }
                }
                Programs::Loop { prep, call } => {
                    let (fx, fy) = trace
                        .calls
                        .first()
                        .map(&coords_of)
                        .unwrap_or((NO_CANDIDATE, NO_CANDIDATE));
                    SadCallArgs::new(ref_addr, stride)
                        .base(prev_buf)
                        .next(fx, fy)
                        .apply(&mut m);
                    m.run_with_tracer(prep, tracer).map_err(sim_err)?;
                    let mut best = u32::MAX;
                    for (i, c) in trace.calls.iter().enumerate() {
                        let (ncx, ncy) = trace
                            .calls
                            .get(i + 1)
                            .map(&coords_of)
                            .unwrap_or((NO_CANDIDATE, NO_CANDIDATE));
                        let (cx, cy) = coords_of(c);
                        SadCallArgs::new(ref_addr, stride)
                            .base(prev_buf)
                            .coords(cx, cy)
                            .interp(c.kind)
                            .next(ncx, ncy)
                            .best(best)
                            .apply(&mut m);
                        m.run_with_tracer(call, tracer).map_err(sim_err)?;
                        check_sad(&m, c.sad)?;
                        best = best.min(c.sad);
                        calls += 1;
                    }
                }
            }
        }
    }

    let region = m.snapshot().since(&start);
    Ok(MeResult {
        label: scenario.label.clone(),
        me_cycles: region.cycles,
        stall_cycles: region.mem.d_stall_cycles,
        calls,
        mem: region.mem,
        core: region.stats,
        rfu: region.rfu,
        quality: workload.quality,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvliw_rfu::RfuBandwidth;

    #[test]
    fn tiny_workload_runs_all_scenario_kinds() {
        let w = Workload::tiny();
        let orig = run_me(&Scenario::orig(), &w).unwrap();
        assert!(orig.me_cycles > 0);
        assert_eq!(orig.calls as usize, w.num_calls());

        let a3 = run_me(&Scenario::a3(), &w).unwrap();
        assert!(a3.me_cycles < orig.me_cycles, "A3 beats ORIG");

        let lp = run_me(&Scenario::loop_level(RfuBandwidth::B1x32, 1), &w).unwrap();
        assert!(lp.me_cycles < a3.me_cycles, "loop-level beats A3");
        assert_eq!(lp.calls, orig.calls);

        let lb = run_me(&Scenario::loop_two_lb(1), &w).unwrap();
        assert!(lb.me_cycles < lp.me_cycles, "two line buffers beat one");
    }

    #[test]
    fn speedup_metrics_are_consistent() {
        let w = Workload::tiny();
        let orig = run_me(&Scenario::orig(), &w).unwrap();
        let a2 = run_me(&Scenario::a2(), &w).unwrap();
        let s = a2.speedup_vs(&orig);
        let imp = a2.improvement_vs(&orig);
        assert!(s > 1.0);
        assert!((imp - (1.0 - 1.0 / s)).abs() < 1e-12);
    }

    #[test]
    fn approximate_scenarios_replay_their_derived_trace() {
        let w = Workload::tiny();
        let approx = mpeg4_enc::ApproxSad::SubsampledRows { step: 2 };
        let a3 = run_me(&Scenario::a3().with_approx(approx), &w).unwrap();
        let q = a3.quality.expect("approx scenarios carry quality");
        assert!(q.sad_inflation >= 0.0);
        let lp = run_me(
            &Scenario::loop_level(RfuBandwidth::B1x32, 1).with_approx(approx),
            &w,
        )
        .unwrap();
        // Same derived workload, same quality, at both abstraction levels.
        assert_eq!(lp.quality, a3.quality);
        // A search override alone also derives (and scores) a workload.
        let se = run_me(
            &Scenario::a3().with_search(mpeg4_enc::me::SearchAlgorithm::ThreeStep),
            &w,
        )
        .unwrap();
        assert!(se.quality.is_some());
        // Exact full-quality scenarios replay the base workload: no quality.
        assert!(run_me(&Scenario::a3(), &w).unwrap().quality.is_none());
    }

    #[test]
    fn error_classification_partitions_transient_from_permanent() {
        let sim = |source: SimError| ScenarioError::Sim {
            label: "x".to_owned(),
            source,
        };
        // Transient: cycle-budget trips and RFU failures (injected
        // latency, line-buffer deadlocks) plus wall-clock timeouts.
        assert!(sim(SimError::CycleLimit { limit: 10 }).is_transient());
        assert!(sim(SimError::Rfu("line buffer deadlock".to_owned())).is_transient());
        assert!(ScenarioError::TimedOut {
            label: "x".to_owned(),
            secs: 1,
        }
        .is_transient());
        // Permanent: structural program failures, divergences, panics.
        assert!(!sim(SimError::FellOffEnd { pc: 3 }).is_transient());
        assert!(!sim(SimError::UnresolvedTarget { pc: 0 }).is_transient());
        assert!(!sim(SimError::Undecodable { what: "op" }).is_transient());
        assert!(!ScenarioError::SadMismatch {
            label: "x".to_owned(),
            frame: 1,
            mbx: 0,
            mby: 0,
            expected: 1,
            got: 2,
        }
        .is_transient());
        assert!(!ScenarioError::Panic {
            label: "x".to_owned(),
            message: "boom".to_owned(),
            location: None,
        }
        .is_transient());
    }

    #[test]
    fn panic_display_carries_the_location_when_captured() {
        let with = ScenarioError::Panic {
            label: "p".to_owned(),
            message: "boom".to_owned(),
            location: Some("src/lib.rs:1:2".to_owned()),
        };
        assert!(with.to_string().contains("panicked at src/lib.rs:1:2"));
        let without = ScenarioError::Panic {
            label: "p".to_owned(),
            message: "boom".to_owned(),
            location: None,
        };
        assert!(without.to_string().contains("panicked: boom"));
        let timeout = ScenarioError::TimedOut {
            label: "t".to_owned(),
            secs: 30,
        };
        assert!(timeout.to_string().contains("30s wall-clock deadline"));
        assert_eq!(timeout.label(), "t");
    }

    #[test]
    fn beta_scaling_slows_the_loop() {
        let w = Workload::tiny();
        let b1 = run_me(&Scenario::loop_level(RfuBandwidth::B1x32, 1), &w).unwrap();
        let b5 = run_me(&Scenario::loop_level(RfuBandwidth::B1x32, 5), &w).unwrap();
        assert!(b5.me_cycles > b1.me_cycles);
    }
}
