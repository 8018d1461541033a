//! `backend_totals()` sums the backend telemetry of finished machines:
//! each machine counts into its own `BackendStats` and adds them to the
//! process-wide totals once, when it is dropped. Two machines on two
//! threads, one on each engine, must account for the whole diff.
//!
//! The file holds a single test so no other test's machines land in the
//! diff.

use rvliw_asm::{schedule_st200, Builder};
use rvliw_isa::{Br, Gpr};
use rvliw_sim::{backend_totals, BackendStats, ExecBackend, Machine};

fn sum(a: BackendStats, b: BackendStats) -> BackendStats {
    BackendStats {
        block_runs: a.block_runs + b.block_runs,
        interp_runs: a.interp_runs + b.interp_runs,
        fallbacks: a.fallbacks + b.fallbacks,
        compile_lookups: a.compile_lookups + b.compile_lookups,
        compile_misses: a.compile_misses + b.compile_misses,
        block_cycles: a.block_cycles + b.block_cycles,
    }
}

fn diff(after: BackendStats, before: BackendStats) -> BackendStats {
    BackendStats {
        block_runs: after.block_runs - before.block_runs,
        interp_runs: after.interp_runs - before.interp_runs,
        fallbacks: after.fallbacks - before.fallbacks,
        compile_lookups: after.compile_lookups - before.compile_lookups,
        compile_misses: after.compile_misses - before.compile_misses,
        block_cycles: after.block_cycles - before.block_cycles,
    }
}

#[test]
fn totals_count_each_dropped_machine_once() {
    // A counted loop: a few blocks and a back edge.
    let mut b = Builder::new("count-down");
    b.movi(Gpr::new(1), 5);
    let top = b.label();
    b.bind(top);
    b.addi(Gpr::new(2), Gpr::new(2), 3);
    b.subi(Gpr::new(1), Gpr::new(1), 1);
    b.cmpne_br(Br::new(0), Gpr::new(1), 0);
    b.br(Br::new(0), top);
    b.halt();
    let code = match schedule_st200(&b.build()) {
        Ok(code) => code,
        Err(e) => panic!("schedule: {e:?}"),
    };

    let before = backend_totals();
    let (block, interp) = std::thread::scope(|s| {
        let run_on = |backend: ExecBackend| {
            let code = &code;
            s.spawn(move || {
                let mut m = Machine::st200();
                m.backend = backend;
                for run in 0..3 {
                    if let Err(e) = m.run(code) {
                        panic!("{backend:?} run {run}: {e:?}");
                    }
                }
                let stats = m.backend_stats();
                // Still alive: nothing of this machine is in the totals.
                (stats, m)
            })
        };
        let a = run_on(ExecBackend::Auto);
        let b = run_on(ExecBackend::Interpreter);
        let join = |h: std::thread::ScopedJoinHandle<'_, (BackendStats, Machine)>| match h.join() {
            Ok(v) => v,
            Err(_) => panic!("machine thread panicked"),
        };
        (join(a), join(b))
    });
    let ((block_stats, block_machine), (interp_stats, interp_machine)) = (block, interp);
    assert_eq!(block_stats.block_runs, 3, "Auto skipped the block engine");
    assert!(block_stats.block_cycles > 0);
    assert_eq!(
        interp_stats.interp_runs, 3,
        "Interpreter ran the block engine"
    );
    assert_eq!(
        diff(backend_totals(), before),
        BackendStats::default(),
        "live machines already counted"
    );
    drop(block_machine);
    assert_eq!(diff(backend_totals(), before), block_stats);
    drop(interp_machine);
    assert_eq!(
        diff(backend_totals(), before),
        sum(block_stats, interp_stats)
    );
}
