//! A traced replay of scenarios through the layers' public APIs.
//!
//! `run_me` reaches the kernel builders and `Machine::run` only from
//! inside, so the traced run drives the same replay itself — derive the
//! workload, build the session, build the kernels, run the machine once
//! per `GetSad` call and check every SAD — with a span around each step.
//! Its `MeResult`s must equal `run_me`'s field for field; the benchmark
//! checks that on every traced pass.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mpeg4_enc::sad::InterpKind;
use mpeg4_enc::types::Plane;
use mpeg4_enc::SadCall;
use rvliw_asm::Code;
use rvliw_core::scenario::{sad_approx_to_rfu, Kind};
use rvliw_core::sweep::ScenarioResult;
use rvliw_core::{MeResult, Scenario, ScenarioError, Workload};
use rvliw_kernels::regs::{
    ARG_BASE, ARG_BEST, ARG_CAND, ARG_CX, ARG_CY, ARG_INTERP, ARG_NCX, ARG_NCY, ARG_REF,
    ARG_STRIDE, NO_CANDIDATE, RESULT,
};
use rvliw_kernels::{build_getsad_approx, build_mb_prep, build_me_loop_call};
use rvliw_sim::{Machine, SimError};

use crate::spans::Trace;

/// Counts and per-call host times gathered by a replay.
#[derive(Debug, Default, Clone)]
pub struct ReplayTotals {
    /// Host nanoseconds of every `Machine::run` of a `GetSad` call.
    pub call_ns: Vec<u32>,
    /// `Machine::run` invocations (calls plus per-macroblock preps).
    pub runs: u64,
    /// Host nanoseconds in `Machine::run`, preps included.
    pub run_ns: u64,
    /// Kernel programs built.
    pub kernel_builds: u64,
    /// Host nanoseconds building kernel programs.
    pub kernel_ns: u64,
    /// Machines built from sessions.
    pub session_builds: u64,
    /// Host nanoseconds building machines.
    pub session_ns: u64,
    /// Host nanoseconds obtaining the replayed workload (derivation).
    pub derive_ns: u64,
}

impl ReplayTotals {
    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: ReplayTotals) {
        self.call_ns.extend(other.call_ns);
        self.runs += other.runs;
        self.run_ns += other.run_ns;
        self.kernel_builds += other.kernel_builds;
        self.kernel_ns += other.kernel_ns;
        self.session_builds += other.session_builds;
        self.session_ns += other.session_ns;
        self.derive_ns += other.derive_ns;
    }
}

fn interp_bits(kind: InterpKind) -> u32 {
    match kind {
        InterpKind::None => 0,
        InterpKind::H => 1,
        InterpKind::V => 2,
        InterpKind::Diag => 3,
    }
}

fn store_plane(m: &mut Machine, base: u32, p: &Plane) {
    for y in 0..p.height() {
        let offset = u32::try_from(y * p.width()).expect("plane offset fits u32");
        m.mem.ram.write_bytes(base + offset, p.row(y));
    }
}

fn coords(c: &SadCall) -> (u32, u32) {
    (c.cx as u32, c.cy as u32)
}

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `code` on `m`, folding the call into `trace` under `parent` and
/// into `totals`.
fn timed_run(
    m: &mut Machine,
    code: &Code,
    trace: &mut Trace,
    parent: usize,
    totals: &mut ReplayTotals,
) -> Result<u64, SimError> {
    let t = Instant::now();
    let res = m.run(code);
    let ns = nanos(t);
    trace.fold(parent, "sim.run", ns);
    totals.runs += 1;
    totals.run_ns += ns;
    res.map(|_| ns)
}

/// Replays every `GetSad` call of `workload` under `sc`, recording spans
/// (`scenario` > `mpeg4.derive`, `session.build`, `kernels.build`,
/// `sim.replay` with folded `sim.run` calls) tagged with scenario `id`.
///
/// # Errors
///
/// As `run_me`: a typed simulator failure or a SAD that disagrees with the
/// host trace.
pub fn replay_scenario(
    sc: &Scenario,
    workload: &Workload,
    id: u64,
    trace: &mut Trace,
    totals: &mut ReplayTotals,
) -> ScenarioResult {
    let sim_err = |source: SimError| ScenarioError::Sim {
        label: sc.label.clone(),
        source,
    };
    let root = trace.open("scenario", id, None);

    let span = trace.open("mpeg4.derive", id, Some(root));
    let t = Instant::now();
    let derived;
    let workload = if sc.needs_derived_workload() {
        derived = workload.derived(sc.approx, sc.search);
        &*derived
    } else {
        workload
    };
    totals.derive_ns += nanos(t);
    trace.close(span);
    let stride = workload.stride;

    let span = trace.open("session.build", id, Some(root));
    let t = Instant::now();
    let mut m = sc.session(stride).build();
    totals.session_ns += nanos(t);
    totals.session_builds += 1;
    trace.close(span);

    let span = trace.open("kernels.build", id, Some(root));
    let t = Instant::now();
    let programs: Vec<Code> = match &sc.kind {
        Kind::Instruction(variant) => vec![build_getsad_approx(
            *variant,
            sad_approx_to_rfu(sc.approx),
            &sc.machine,
        )],
        Kind::Loop { .. } => {
            let kind = sc
                .driver_kind()
                .expect("loop-level scenarios have a driver");
            vec![
                build_mb_prep(kind, &sc.machine),
                build_me_loop_call(kind, &sc.machine),
            ]
        }
    };
    totals.kernel_ns += nanos(t);
    totals.kernel_builds += programs.len() as u64;
    trace.close(span);

    let replay = trace.open("sim.replay", id, Some(root));
    let height = u32::try_from(workload.frames[0].height()).expect("height fits u32");
    let cur_buf = m.mem.ram.alloc(stride * height, 32);
    let prev_buf = m.mem.ram.alloc(stride * height, 32);
    let start = m.snapshot();
    let mut calls = 0u64;
    for (t, frame) in workload.frames.iter().enumerate().skip(1) {
        store_plane(&mut m, cur_buf, &frame.y);
        store_plane(&mut m, prev_buf, &workload.report.recon[t - 1].y);
        for mb in &workload.report.frames[t].motion {
            let ref_addr = cur_buf + (mb.mby * 16) as u32 * stride + (mb.mbx * 16) as u32;
            let check = |m: &Machine, expected: u32| {
                let got = m.gpr(RESULT);
                if got == expected {
                    Ok(())
                } else {
                    Err(ScenarioError::SadMismatch {
                        label: sc.label.clone(),
                        frame: t,
                        mbx: mb.mbx,
                        mby: mb.mby,
                        expected,
                        got,
                    })
                }
            };
            match programs.as_slice() {
                [code] => {
                    for c in &mb.calls {
                        m.set_gpr(ARG_REF, ref_addr);
                        m.set_gpr(ARG_STRIDE, stride);
                        m.set_gpr(ARG_CAND, prev_buf + c.cy as u32 * stride + c.cx as u32);
                        m.set_gpr(ARG_INTERP, interp_bits(c.kind));
                        let ns = timed_run(&mut m, code, trace, replay, totals).map_err(sim_err)?;
                        totals.call_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                        check(&m, c.sad)?;
                        calls += 1;
                    }
                }
                [prep, call] => {
                    let (fx, fy) = mb
                        .calls
                        .first()
                        .map_or((NO_CANDIDATE, NO_CANDIDATE), coords);
                    m.set_gpr(ARG_REF, ref_addr);
                    m.set_gpr(ARG_STRIDE, stride);
                    m.set_gpr(ARG_BASE, prev_buf);
                    m.set_gpr(ARG_NCX, fx);
                    m.set_gpr(ARG_NCY, fy);
                    timed_run(&mut m, prep, trace, replay, totals).map_err(sim_err)?;
                    let mut best = u32::MAX;
                    for (i, c) in mb.calls.iter().enumerate() {
                        let (ncx, ncy) = mb
                            .calls
                            .get(i + 1)
                            .map_or((NO_CANDIDATE, NO_CANDIDATE), coords);
                        let (cx, cy) = coords(c);
                        m.set_gpr(ARG_REF, ref_addr);
                        m.set_gpr(ARG_STRIDE, stride);
                        m.set_gpr(ARG_BASE, prev_buf);
                        m.set_gpr(ARG_INTERP, interp_bits(c.kind));
                        m.set_gpr(ARG_CX, cx);
                        m.set_gpr(ARG_CY, cy);
                        m.set_gpr(ARG_NCX, ncx);
                        m.set_gpr(ARG_NCY, ncy);
                        m.set_gpr(ARG_BEST, best);
                        let ns = timed_run(&mut m, call, trace, replay, totals).map_err(sim_err)?;
                        totals.call_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                        check(&m, c.sad)?;
                        best = best.min(c.sad);
                        calls += 1;
                    }
                }
                _ => unreachable!("a scenario builds one or two programs"),
            }
        }
    }
    let region = m.snapshot().since(&start);
    trace.close(replay);
    trace.close(root);
    Ok(MeResult {
        label: sc.label.clone(),
        me_cycles: region.cycles,
        stall_cycles: region.mem.d_stall_cycles,
        calls,
        mem: region.mem,
        core: region.stats,
        rfu: region.rfu,
        quality: workload.quality,
    })
}

/// Replays `scenarios` on `threads` workers that take the next scenario
/// as they free up, like the runner does. Returns the results in input
/// order, the merged trace (scenario spans tagged with their index) and
/// the merged totals.
#[must_use]
pub fn replay_list(
    scenarios: &[Scenario],
    workload: &Workload,
    threads: usize,
    origin: Instant,
) -> (Vec<ScenarioResult>, Trace, ReplayTotals) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ScenarioResult>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();
    let worker = || {
        let mut trace = Trace::new(origin);
        let mut totals = ReplayTotals::default();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(sc) = scenarios.get(i) else { break };
            let r = replay_scenario(sc, workload, i as u64, &mut trace, &mut totals);
            *slots[i]
                .lock()
                .expect("no replay worker panics holding a slot") = Some(r);
        }
        (trace, totals)
    };
    let parts: Vec<(Trace, ReplayTotals)> = if threads <= 1 {
        vec![worker()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads.min(scenarios.len()))
                .map(|_| s.spawn(worker))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay worker panicked"))
                .collect()
        })
    };
    let mut trace = Trace::new(origin);
    let mut totals = ReplayTotals::default();
    for (t, tot) in parts {
        trace.merge(t, None);
        totals.absorb(tot);
    }
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no replay worker panics holding a slot")
                .expect("every scenario was replayed")
        })
        .collect();
    (results, trace, totals)
}
