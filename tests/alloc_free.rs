//! Guards the perf contract of the warm simulate path: once a program's
//! `DecodedCode` is cached, re-running it must not touch the
//! heap. Resolve scratch lives on the stack, write-backs go through
//! fixed-size machine state, and the loop-level RFU path (macroblock
//! prefetch, Line Buffer B, the prefetch buffer and the ME-loop SAD) works
//! in storage reserved when the machine was built.
//!
//! Allocations are counted **per thread**: the simulator runs on the test
//! thread, while libtest's harness threads (result channels, timeout
//! bookkeeping) allocate at timing-dependent moments of their own — a
//! process-global count would flake whenever one of those allocations
//! landed inside the measured window.
//!
//! The contract is about the release build the benchmark measures; run it
//! there too with `cargo test --release --test alloc_free`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rvliw_asm::{schedule_st200, Builder};
use rvliw_core::SimSession;
use rvliw_isa::{Br, Gpr, MachineConfig, Substrate};
use rvliw_kernels::regs::{
    ARG_BASE, ARG_BEST, ARG_CX, ARG_CY, ARG_INTERP, ARG_NCX, ARG_NCY, ARG_REF, ARG_STRIDE,
};
use rvliw_kernels::{build_mb_prep, build_me_loop_call, DriverKind};
use rvliw_mem::MemConfig;
use rvliw_rfu::{MeLoopCfg, RfuBandwidth};
use rvliw_sim::{ExecBackend, Machine};
use rvliw_trace::NullTracer;

struct CountingAlloc;

std::thread_local! {
    /// Heap allocations made by *this* thread. A const-initialized
    /// `Cell<u64>` occupies a plain TLS slot — no lazy allocation, no
    /// destructor registration — so bumping it from inside the allocator
    /// cannot recurse.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` so allocations during thread teardown (after this
    // thread's TLS was destroyed) are silently dropped instead of
    // panicking inside the allocator.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A pure-arithmetic loop with cross-bundle dependencies: 512 iterations,
/// ~10 ops each, enough cycles to make any per-cycle allocation obvious.
fn hot_loop() -> rvliw_asm::Code {
    let mut b = Builder::new("alloc_probe");
    let i = Gpr::new(1);
    let c = Br::new(0);
    b.movi(i, 512);
    let top = b.label();
    b.bind(top);
    for r in 2..10u8 {
        b.addi(Gpr::new(r), Gpr::new(r), i32::from(r));
    }
    b.subi(i, i, 1);
    b.cmpne_br(c, i, 0);
    b.br(c, top);
    b.halt();
    schedule_st200(&b.build()).unwrap()
}

/// Runs the hot loop once to pay the one-time decode, then asserts a
/// warm run, plain and under a `NullTracer`, makes no heap allocation.
fn assert_warm_runs_do_not_allocate(mut m: Machine, engine: &str) {
    let code = hot_loop();

    // First run pays the one-time decode (and may allocate for it).
    m.run(&code).expect("warm-up run");

    let before = thread_allocs();
    m.run(&code).expect("measured run");
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "{engine}: steady-state issue loop allocated {} time(s)",
        after - before
    );

    // The generic tracer path with tracing disabled must uphold the same
    // contract: a `NullTracer` run monomorphizes to the untraced loop, so
    // it may not allocate either.
    let before = thread_allocs();
    m.run_with_tracer(&code, &mut NullTracer)
        .expect("null-traced run");
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "{engine}: NullTracer issue loop allocated {} time(s)",
        after - before
    );
}

#[test]
fn warm_issue_loop_does_not_allocate() {
    assert_warm_runs_do_not_allocate(Machine::st200(), "block engine");
}

/// The interpreter driver runs the same executor as the block engine: a
/// VLIW machine pinned to it and a scalar-substrate machine (which always
/// runs on it) hold the same contract.
#[test]
fn warm_interpreter_loops_do_not_allocate() {
    let mut pinned = Machine::st200();
    pinned.backend = ExecBackend::Interpreter;
    assert_warm_runs_do_not_allocate(pinned, "pinned interpreter");
    let scalar = Machine::new(
        MachineConfig::st200().with_substrate(Substrate::ScalarInOrder),
        MemConfig::st200(),
    );
    assert_warm_runs_do_not_allocate(scalar, "scalar substrate");
}

const STRIDE: u32 = 176;

/// A loop-level machine for `kind` with a reference frame and a
/// predictor frame in RAM; returns the machine and both frame bases.
fn loop_level_machine(kind: DriverKind) -> (Machine, u32, u32) {
    let mut me = MeLoopCfg::new(RfuBandwidth::B1x32, 1, STRIDE);
    if kind == DriverKind::DoubleLineBuffer {
        me = me.with_line_buffer_b();
    }
    let mut m = SimSession::st200_loop_level().me_loop(me).build();
    let cur = m.mem.ram.alloc(STRIDE * 144, 32);
    let prev = m.mem.ram.alloc(STRIDE * 144, 32);
    for i in 0..STRIDE * 144 {
        m.mem.ram.store8(cur + i, (i % 253) as u8);
        m.mem.ram.store8(prev + i, ((i * 7) % 251) as u8);
    }
    (m, cur, prev)
}

/// One candidate of a ±4 search around the macroblock at (48, 48), in
/// raster order, cycling through the four interpolation modes.
fn candidate(i: u32) -> (u32, u32, u32) {
    (44 + i % 9, 44 + (i / 9) % 9, i % 4)
}

/// Runs the driver's per-candidate program for candidate `i`, with the
/// prefetch for candidate `i + 1`.
fn call(m: &mut Machine, code: &rvliw_asm::Code, i: u32) {
    let (cx, cy, interp) = candidate(i);
    let (ncx, ncy, _) = candidate(i + 1);
    m.set_gpr(ARG_CX, cx);
    m.set_gpr(ARG_CY, cy);
    m.set_gpr(ARG_INTERP, interp);
    m.set_gpr(ARG_NCX, ncx);
    m.set_gpr(ARG_NCY, ncy);
    m.set_gpr(ARG_BEST, u32::MAX);
    m.run(code).expect("loop-level call");
}

#[test]
fn warm_loop_level_call_does_not_allocate() {
    for kind in [DriverKind::SingleLineBuffer, DriverKind::DoubleLineBuffer] {
        let (mut m, cur, prev) = loop_level_machine(kind);
        let prep = build_mb_prep(kind, &MachineConfig::st200());
        let code = build_me_loop_call(kind, &MachineConfig::st200());
        m.set_gpr(ARG_REF, cur + 48 * STRIDE + 48);
        m.set_gpr(ARG_BASE, prev);
        m.set_gpr(ARG_STRIDE, STRIDE);
        let (fx, fy, _) = candidate(0);
        m.set_gpr(ARG_NCX, fx);
        m.set_gpr(ARG_NCY, fy);

        // First runs pay the one-time decodes (and may allocate for them).
        m.run(&prep).expect("macroblock prep");
        call(&mut m, &code, 0);

        // The rest of the search: every call prefetches the next
        // candidate into the prefetch buffer or Line Buffer B and runs
        // the ME loop over the current one.
        for i in 1..81 {
            let before = thread_allocs();
            call(&mut m, &code, i);
            let after = thread_allocs();
            assert_eq!(
                after - before,
                0,
                "{kind:?}: warm call {i} allocated {} time(s)",
                after - before
            );
        }
        assert_eq!(m.rfu.stats.loops, 81, "{kind:?}");

        // A new macroblock's prep is warm too.
        let before = thread_allocs();
        m.run(&prep).expect("warm macroblock prep");
        let after = thread_allocs();
        assert_eq!(after - before, 0, "{kind:?}: warm prep allocated");
    }
}
